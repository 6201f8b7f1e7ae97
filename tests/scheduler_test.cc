/**
 * @file
 * Wake-list scheduler contract (docs/architecture.md, "The event-driven
 * interpreter"): the ready set only ever visits stages with a pending
 * event, yet nothing observable distinguishes it from the dense
 * every-stage scan it replaced:
 *
 *  - skipped idle visits are real and accounted: on a design whose sink
 *    wakes 1 cycle in 16, events_skipped covers the idle gap and the
 *    sink's execution count matches the wake schedule exactly;
 *  - idle accounting is cross-backend: the event engine's per-stage
 *    idle_cycles counters (derived from the wake list) are bit-identical
 *    to the netlist engine's, which derives them by scanning every stage
 *    every cycle;
 *  - the ready set is shuffle-invariant: executing ready stages in any
 *    seeded order leaves the full metrics snapshot byte-identical,
 *    because same-cycle stages are data-independent by construction
 *    (reads see start-of-cycle state, commits land in phase 2);
 *  - a checkpoint taken mid-run — with wake spans open on idle stages —
 *    restores byte-identically: the resumed run's final snapshot equals
 *    the uninterrupted run's.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "designs/cpu.h"
#include "isa/riscv.h"
#include "isa/workloads.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/ckpt.h"
#include "sim/simulator.h"

namespace assassyn {
namespace {

using namespace dsl;

/**
 * A driver that wakes its sink only once every 16 cycles — the
 * mostly-idle shape the wake-list scheduler exists for. Finishes at
 * cycle @p stop + 1.
 */
struct SparseWake {
    SysBuilder sb{"sparse"};
    Stage sink, d;
    uint64_t stop;

    explicit SparseWake(uint64_t stop_cycles) : stop(stop_cycles)
    {
        sink = sb.stage("sink", {{"x", uintType(16)}});
        d = sb.driver();
        Reg acc = sb.reg("acc", uintType(32));
        Reg cyc = sb.reg("cyc", uintType(16));
        {
            StageScope scope(sink);
            Val x = sink.arg("x");
            acc.write(acc.read() + x.zext(32));
        }
        {
            StageScope scope(d);
            Val v = cyc.read();
            cyc.write(v + lit(1, 16));
            Val in_run = v < lit(stop, 16);
            Val on_beat = (v & lit(15, 16)) == lit(0, 16);
            when(in_run & on_beat, [&] { asyncCall(sink, {v}); });
            when(v == lit(stop, 16), [&] { finish(); });
        }
        compile(sb.sys());
    }
};

TEST(SchedulerTest, WakeListSkipsIdleStagesAndAccountsForThem)
{
    SparseWake design(1600);
    sim::SimOptions opts;
    opts.capture_logs = false;
    sim::Simulator s(design.sb.sys(), opts);
    ASSERT_TRUE(s.run(10'000).status == sim::RunStatus::kFinished);

    sim::SimStats st = s.stats();
    ASSERT_GT(st.cycles, 0u);
    // The sink ran exactly on its 1-in-16 beat; every other cycle it
    // was idle and the wake-list scheduler must have skipped it.
    uint64_t beats = design.stop / 16; // driver counts 0, 16, ..., 1584
    EXPECT_EQ(s.stageCounters(design.sink.mod()).execs, beats);
    EXPECT_GT(st.events_skipped, st.cycles / 2)
        << "a 1-in-16 sink must contribute ~15/16 of its cycles as "
           "skipped idle visits";
    // Conservation: each (stage, cycle) pair is either a skipped idle
    // visit or a ready-set residence, and a resident stage executes at
    // most once per cycle.
    uint64_t num_stages = design.sb.sys().modules().size();
    EXPECT_LE(st.total_stage_executions + st.events_skipped,
              st.cycles * num_stages);
    // Every sink execution was preceded by a wake (the driver stays
    // permanently ready, so wakes come only from sink events).
    EXPECT_GE(st.stages_woken, beats);
    EXPECT_GT(st.total_events_subscribed, 0u);
}

TEST(SchedulerTest, StatsAreDeterministicAcrossRuns)
{
    SparseWake design(800);
    auto run = [&] {
        sim::SimOptions opts;
        opts.capture_logs = false;
        sim::Simulator s(design.sb.sys(), opts);
        EXPECT_TRUE(s.run(10'000).status == sim::RunStatus::kFinished);
        return s.stats();
    };
    sim::SimStats a = run(), b = run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.total_stage_executions, b.total_stage_executions);
    EXPECT_EQ(a.total_events_subscribed, b.total_events_subscribed);
    EXPECT_EQ(a.events_skipped, b.events_skipped);
    EXPECT_EQ(a.stages_woken, b.stages_woken);
}

/**
 * Idle accounting equivalence: the event engine derives idle_cycles
 * from wake-list spans (a stage not in the ready set accrues idleness
 * lazily); the netlist engine scans every stage every cycle. The full
 * metrics snapshots — including every stage's idle_cycles — must be
 * bit-identical.
 */
TEST(SchedulerTest, IdleAccountingMatchesDenseNetlistScan)
{
    SparseWake design(1600);
    sim::SimOptions opts;
    opts.capture_logs = false;
    sim::Simulator ev(design.sb.sys(), opts);
    ASSERT_TRUE(ev.run(10'000).status == sim::RunStatus::kFinished);

    rtl::Netlist nl(design.sb.sys());
    rtl::NetlistSimOptions nopts;
    nopts.capture_logs = false;
    rtl::NetlistSim rs(nl, nopts);
    ASSERT_TRUE(rs.run(10'000).status == sim::RunStatus::kFinished);

    EXPECT_EQ(ev.metrics().toJson("sparse"), rs.metrics().toJson("sparse"));
}

TEST(SchedulerTest, IdleAccountingMatchesOnCpuWorkload)
{
    auto image = isa::buildMemoryImage(isa::workload("vvadd"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);
    sim::SimOptions opts;
    opts.capture_logs = false;
    sim::Simulator ev(*cpu.sys, opts);
    ASSERT_TRUE(ev.run(1'000'000).status == sim::RunStatus::kFinished);
    EXPECT_GT(ev.stats().events_skipped, 0u);

    rtl::Netlist nl(*cpu.sys);
    rtl::NetlistSimOptions nopts;
    nopts.capture_logs = false;
    rtl::NetlistSim rs(nl, nopts);
    ASSERT_TRUE(rs.run(1'000'000).status == sim::RunStatus::kFinished);

    EXPECT_EQ(ev.metrics().toJson("cpu"), rs.metrics().toJson("cpu"));
}

/**
 * Shuffle invariance: permuting the ready set's execution order with
 * any seed must leave every observable — cycle count and the full
 * metrics snapshot — byte-identical to the unshuffled run.
 */
TEST(SchedulerTest, ReadySetIsShuffleInvariant)
{
    auto image = isa::buildMemoryImage(isa::workload("towers"));
    auto cpu = designs::buildCpu(designs::BranchPolicy::kTaken, image);

    auto metricsWithSeed = [&](bool shuffle, uint64_t seed) {
        sim::SimOptions opts;
        opts.capture_logs = false;
        opts.shuffle = shuffle;
        opts.shuffle_seed = seed;
        sim::Simulator s(*cpu.sys, opts);
        EXPECT_TRUE(s.run(2'000'000).status == sim::RunStatus::kFinished);
        return s.metrics().toJson("cpu");
    };

    std::string ref = metricsWithSeed(false, 0);
    for (uint64_t seed : {1u, 7u, 23u, 101u})
        EXPECT_EQ(metricsWithSeed(true, seed), ref)
            << "metrics diverged under shuffle seed " << seed;
}

/**
 * Checkpoint byte-identity with wake spans open: at the snapshot cycle
 * the sparse sink is mid-way through an idle span the scheduler has not
 * yet folded into idle_cycles. The resumed run's final encoded snapshot
 * must equal the uninterrupted run's byte for byte.
 */
TEST(SchedulerTest, MidWakeSpanCheckpointRestoresByteIdentically)
{
    SparseWake design(1600);
    auto make = [&] {
        sim::SimOptions opts;
        opts.capture_logs = false;
        return std::make_unique<sim::Simulator>(design.sb.sys(), opts);
    };

    auto straight = make();
    ASSERT_TRUE(straight->run(10'000).status == sim::RunStatus::kFinished);
    std::vector<uint8_t> want = sim::encodeSnapshot(straight->snapshot());

    // ks chosen off the 16-cycle beat so the sink is deep in an open
    // idle span when the snapshot is cut.
    for (uint64_t k : {5u, 23u, 807u, 1599u}) {
        auto first = make();
        ASSERT_EQ(first->run(k).status, sim::RunStatus::kMaxCycles);
        sim::Snapshot snap = first->snapshot();

        auto resumed = make();
        resumed->restore(snap);
        EXPECT_EQ(resumed->cycle(), k);
        ASSERT_TRUE(resumed->run(10'000).status == sim::RunStatus::kFinished);
        EXPECT_EQ(sim::encodeSnapshot(resumed->snapshot()), want)
            << "final snapshot diverged after resume from cycle " << k;
        EXPECT_EQ(resumed->metrics().toJson("sparse"),
                  straight->metrics().toJson("sparse"));
        // events_skipped derives from the snapshotted per-stage idle
        // counters, so it survives the round-trip. (stages_woken is
        // scheduler-internal bookkeeping, not architectural state, and
        // deliberately not serialized.)
        EXPECT_EQ(resumed->stats().events_skipped,
                  straight->stats().events_skipped);
    }
}

} // namespace
} // namespace assassyn
