/**
 * @file
 * Differential fuzzing of the central claim (Q5 alignment): randomly
 * generated designs must behave identically — cycle counts, final
 * architectural state, and log output — under the event-driven
 * simulator, the RTL netlist simulator, and every stage-order shuffle.
 *
 * The generator builds a driver plus a random chain of stages with
 * random widths, random combinational logic (all operators), nested
 * conditional regions, cross-stage references (acyclic by
 * construction), register/array traffic, and async calls. Each stage
 * logs a mixing hash of its values so divergence anywhere becomes
 * observable.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "core/compiler/pass.h"
#include "core/dsl/builder.h"
#include "rtl/netlist.h"
#include "rtl/netlist_sim.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "support/rng.h"

namespace assassyn {
namespace {

using namespace dsl;

/** Builds one random (but always legal) design from a seed. */
class RandomDesign {
  public:
    explicit RandomDesign(uint64_t seed) : rng_(seed) {}

    std::unique_ptr<System>
    build()
    {
        SysBuilder sb("fuzz");
        size_t num_stages = 1 + rng_.below(3);

        // Shared architectural state. One register per stage keeps the
        // one-writer-per-array-per-cycle rule satisfiable: stage i only
        // ever writes regs[i] (reads are unrestricted), and only stage 0
        // writes the scratch array.
        std::vector<Reg> regs;
        for (size_t i = 0; i < 3; ++i)
            regs.push_back(sb.reg("r" + std::to_string(i),
                                  uintType(randWidth()),
                                  rng_.next()));
        Arr arr = sb.arr("scratch", uintType(32), 8);

        // Declare stages with 1-2 ports each.
        std::vector<Stage> stages;
        std::vector<size_t> port_count;
        for (size_t i = 0; i < num_stages; ++i) {
            std::vector<PortDecl> ports;
            size_t n_ports = 1 + rng_.below(2);
            for (size_t p = 0; p < n_ports; ++p)
                ports.push_back({"p" + std::to_string(p),
                                 uintType(randWidth())});
            stages.push_back(
                sb.stage("s" + std::to_string(i), ports));
            port_count.push_back(n_ports);
        }
        Stage driver = sb.driver();

        // Build stage bodies back to front so cross-stage references
        // (later stage -> earlier stage would be a cycle risk) only ever
        // point at stages with HIGHER indices, which we build first.
        for (size_t i = num_stages; i-- > 0;) {
            StageScope scope(stages[i]);
            std::vector<Val> pool;
            for (size_t p = 0; p < port_count[i]; ++p)
                pool.push_back(stages[i].arg("p" + std::to_string(p)));
            for (const Reg &r : regs)
                pool.push_back(r.read());
            pool.push_back(arr.read(fitTo(pool[0], 3)));
            // Cross-stage references into already-built stages.
            for (size_t j = i + 1; j < num_stages; ++j)
                if (rng_.below(2))
                    pool.push_back(stages[j].exposed("mix", uintType(32)));

            growPool(pool);
            Val mix = mixOf(pool);
            expose("mix", mix);
            log("s" + std::to_string(i) + " {}", {mix});

            // A register write guarded by a random nested condition;
            // stage i owns regs[i], stage 0 additionally owns scratch.
            Val cond = pool[rng_.below(pool.size())].orReduce();
            size_t target = i;
            when(cond, [&] {
                Val inner = mixOf(pool).bit(0);
                unsigned bits = regs[target].array()->elemType().bits();
                Val narrowed =
                    mix.bits() > bits ? mix.trunc(bits) : mix.zext(bits);
                when(inner, [&] { regs[target].write(narrowed); });
                if (i == 0) {
                    when(!inner, [&] {
                        arr.write(mix.slice(2, 0), mix);
                    });
                }
            });

            // Forward the dataflow to the next stage.
            if (i + 1 < num_stages) {
                std::vector<Val> args;
                for (size_t p = 0; p < port_count[i + 1]; ++p) {
                    Val v = pool[rng_.below(pool.size())];
                    unsigned want =
                        stages[i + 1].mod()->port(p)->type().bits();
                    args.push_back(fitTo(v, want));
                }
                if (rng_.below(3) == 0) {
                    when(pool[rng_.below(pool.size())].orReduce(),
                         [&] { asyncCall(stages[i + 1], args); });
                } else {
                    asyncCall(stages[i + 1], args);
                }
            }
        }

        // Driver: feed stage 0 every cycle and stop deterministically.
        {
            StageScope scope(driver);
            Reg cyc = sb.reg("cyc", uintType(32));
            Val v = cyc.read();
            cyc.write(v + 1);
            std::vector<Val> args;
            for (size_t p = 0; p < port_count[0]; ++p) {
                unsigned want = stages[0].mod()->port(p)->type().bits();
                args.push_back(fitTo(v * (p + 3), want));
            }
            asyncCall(stages[0], args);
            when(v == 40, [&] { finish(); });
        }

        compile(sb.sys());
        return sb.take();
    }

  private:
    unsigned randWidth() { return 1 + unsigned(rng_.below(32)); }

    Val
    fitTo(Val v, unsigned bits)
    {
        if (v.bits() > bits)
            return v.trunc(bits);
        if (v.bits() < bits)
            return v.zext(bits);
        return v;
    }

    /** Apply random operators to enlarge the value pool. */
    void
    growPool(std::vector<Val> &pool)
    {
        size_t extra = 3 + rng_.below(6);
        for (size_t k = 0; k < extra; ++k) {
            Val a = pool[rng_.below(pool.size())];
            Val b = pool[rng_.below(pool.size())];
            b = fitTo(b, a.bits());
            Val r;
            switch (rng_.below(12)) {
              case 0: r = a + b; break;
              case 1: r = a - b; break;
              case 2: r = a * b; break;
              case 3: r = a & b; break;
              case 4: r = a | b; break;
              case 5: r = a ^ b; break;
              case 6: r = (a < b).zext(8); break;
              case 7: r = select(a.orReduce(), a, b); break;
              case 8: r = ~a; break;
              case 9: r = a.slice(a.bits() - 1, a.bits() / 2); break;
              case 10: r = fitTo(a, std::min(64u, a.bits() + 4)); break;
              default: r = a >> lit(rng_.below(a.bits()), 6); break;
            }
            pool.push_back(r);
        }
    }

    Val
    mixOf(std::vector<Val> &pool)
    {
        Val acc = fitTo(pool[0], 32);
        for (size_t i = 1; i < pool.size(); ++i)
            acc = (acc * 31) ^ fitTo(pool[i], 32);
        return acc;
    }

    Rng rng_;
};

class AlignmentFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AlignmentFuzzTest, BackendsAgreeExactly)
{
    RandomDesign gen(GetParam());
    auto sys = gen.build();

    sim::Simulator esim(*sys);
    esim.run(200);
    ASSERT_TRUE(esim.finished()) << "seed " << GetParam();

    rtl::Netlist nl(*sys);
    rtl::NetlistSim rsim(nl);
    rsim.run(200);
    ASSERT_TRUE(rsim.finished()) << "seed " << GetParam();

    EXPECT_EQ(esim.cycle(), rsim.cycle()) << "seed " << GetParam();
    EXPECT_EQ(esim.logOutput(), rsim.logOutput())
        << "seed " << GetParam();
    for (const auto &array : sys->arrays())
        for (size_t i = 0; i < array->size(); ++i)
            EXPECT_EQ(esim.readArray(array.get(), i),
                      rsim.readArray(array.get(), i))
                << "seed " << GetParam() << " array " << array->name()
                << "[" << i << "]";
}

TEST_P(AlignmentFuzzTest, ShuffleInvariant)
{
    RandomDesign gen(GetParam());
    auto sys = gen.build();

    sim::Simulator ref(*sys);
    ref.run(200);
    ASSERT_TRUE(ref.finished());

    sim::SimOptions opts;
    opts.shuffle = true;
    opts.shuffle_seed = GetParam() * 7 + 1;
    sim::Simulator shuffled(*sys, opts);
    shuffled.run(200);
    ASSERT_TRUE(shuffled.finished());

    EXPECT_EQ(ref.cycle(), shuffled.cycle());
    for (const auto &array : sys->arrays())
        for (size_t i = 0; i < array->size(); ++i)
            EXPECT_EQ(ref.readArray(array.get(), i),
                      shuffled.readArray(array.get(), i))
                << "seed " << GetParam();
}

/**
 * Alignment under seeded fault injection (docs/robustness.md): the same
 * FaultSpec corrupts the same bits at the same cycles on both backends,
 * so whatever the corrupted design does — finish, diverge, or die on a
 * design fault — it must do identically on both. This extends the Q5
 * alignment claim from clean runs to faulty ones.
 */
TEST_P(AlignmentFuzzTest, BackendsAgreeUnderFaultInjection)
{
    RandomDesign gen(GetParam());
    auto sys = gen.build();

    sim::FaultSpec spec;
    spec.seed = GetParam() * 7919 + 13;
    spec.count = 3;
    spec.first_cycle = 5;
    spec.last_cycle = 30;

    sim::Simulator esim(*sys);
    sim::FaultInjector einj(*sys, spec);
    einj.attach(esim);
    sim::RunResult eres = esim.run(200);

    rtl::Netlist nl(*sys);
    rtl::NetlistSim rsim(nl);
    sim::FaultInjector rinj(*sys, spec);
    rinj.attach(rsim);
    sim::RunResult rres = rsim.run(200);

    EXPECT_EQ(eres.status, rres.status) << "seed " << GetParam();
    EXPECT_EQ(eres.cycles, rres.cycles) << "seed " << GetParam();
    EXPECT_EQ(eres.error, rres.error) << "seed " << GetParam();
    EXPECT_EQ(eres.hazard.toString(), rres.hazard.toString())
        << "seed " << GetParam();
    EXPECT_EQ(einj.summary(), rinj.summary()) << "seed " << GetParam();
    EXPECT_EQ(esim.logOutput(), rsim.logOutput())
        << "seed " << GetParam();
    sim::MetricsRegistry em = esim.metrics();
    sim::MetricsRegistry rm = rsim.metrics();
    EXPECT_TRUE(em == rm) << "seed " << GetParam()
                          << " metrics diverged:\n" << em.diff(rm);
    for (const auto &array : sys->arrays())
        for (size_t i = 0; i < array->size(); ++i)
            EXPECT_EQ(esim.readArray(array.get(), i),
                      rsim.readArray(array.get(), i))
                << "seed " << GetParam() << " array " << array->name()
                << "[" << i << "]";
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlignmentFuzzTest,
                         ::testing::Range(uint64_t(1), uint64_t(81)));

/**
 * Random FSM-dispatch designs: the shape the event tape collapses into
 * one kSwitch (sim::Program's switch pass). A driver walks a 12-bit
 * state register through a chain of `when(st == k)` arms with random
 * keys, drawn dense, sparse, or past the switch table's size cap. Arms
 * pick their next state from the keys plus one value no arm matches,
 * which a recovery guard after the chain sends back to the first key.
 * Some arms make their state write conditional, so a nested guard ends
 * exactly at the next arm, and some designs wrap the leading arms in
 * an enclosing guard that ends on an interior arm: the one chain shape
 * the pass must cut.
 */
class RandomFsmDesign {
  public:
    explicit RandomFsmDesign(uint64_t seed) : rng_(seed) {}

    bool enclosed = false; ///< leading arms sit under an enclosing guard
    bool far_key = false;  ///< some key is past the switch table cap

    std::unique_ptr<System>
    build()
    {
        SysBuilder sb("fsm_fuzz");
        std::vector<uint64_t> keys;
        size_t n = 3 + rng_.below(10);
        // Key styles: dense, sparse, and dense with some far keys.
        const uint64_t style = rng_.below(3);
        while (keys.size() < n) {
            uint64_t k = style == 2 && rng_.below(4) == 0
                             ? 300 + rng_.below(3700)
                         : style == 1 ? rng_.below(64)
                                      : rng_.below(2 * n);
            if (std::find(keys.begin(), keys.end(), k) == keys.end())
                keys.push_back(k);
        }
        uint64_t miss = 4095;
        while (std::find(keys.begin(), keys.end(), miss) != keys.end())
            --miss;
        for (uint64_t k : keys)
            far_key |= k >= 300;

        Reg st = sb.reg("st", uintType(12), keys[0]);
        Reg cyc = sb.reg("cyc", uintType(32));
        Stage d = sb.driver();
        {
            StageScope scope(d);
            Val v = cyc.read();
            cyc.write(v + 1);
            Val cur = st.read();
            auto pick = [&] {
                return rng_.below(5) == 0 ? miss
                                          : keys[rng_.below(keys.size())];
            };
            auto arm = [&](size_t i) {
                const unsigned sel_bit = unsigned(rng_.below(5));
                const uint64_t on_true = pick(), on_false = pick();
                const bool nested = rng_.below(2);
                const unsigned write_bit = unsigned(rng_.below(5));
                when(cur == keys[i], [&] {
                    log("arm" + std::to_string(i) + " {}", {v});
                    Val next = select(v.bit(sel_bit), lit(on_true, 12),
                                      lit(on_false, 12));
                    // A nested guard as the arm's last statement ends
                    // exactly where the next arm begins.
                    if (nested)
                        when(v.bit(write_bit), [&] { st.write(next); });
                    else
                        st.write(next);
                });
            };
            size_t first = 0;
            if (rng_.below(2) == 0) {
                enclosed = true;
                first = 1 + rng_.below(n - 1);
                when(v.bit(unsigned(rng_.below(3))), [&] {
                    for (size_t i = 0; i < first; ++i)
                        arm(i);
                });
            }
            for (size_t i = first; i < n; ++i)
                arm(i);
            Val hit = cur == keys[0];
            for (size_t i = 1; i < n; ++i)
                hit = hit | (cur == keys[i]);
            when(!hit, [&] {
                log("miss {}", {cur});
                st.write(lit(keys[0], 12));
            });
            when(v == 60, [&] { finish(); });
        }
        compile(sb.sys());
        return sb.take();
    }

  private:
    Rng rng_;
};

size_t
countOp(const sim::Program &prog, sim::DOp op)
{
    size_t n = 0;
    for (const sim::DStep &s : prog.tape())
        n += s.op == uint8_t(op);
    return n;
}

class FsmDispatchFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FsmDispatchFuzzTest, BackendsAgreeExactly)
{
    RandomFsmDesign gen(GetParam());
    auto sys = gen.build();

    sim::Simulator esim(*sys);
    sim::RunResult eres = esim.run(200);
    rtl::Netlist nl(*sys);
    rtl::NetlistSim rsim(nl);
    sim::RunResult rres = rsim.run(200);

    ASSERT_TRUE(esim.finished()) << "seed " << GetParam() << eres.error;
    EXPECT_EQ(eres.cycles, rres.cycles) << "seed " << GetParam();
    EXPECT_EQ(esim.logOutput(), rsim.logOutput()) << "seed " << GetParam();
    EXPECT_EQ(esim.metrics().toJson("fsm"), rsim.metrics().toJson("fsm"))
        << "seed " << GetParam();
    for (const auto &array : sys->arrays())
        for (size_t i = 0; i < array->size(); ++i)
            EXPECT_EQ(esim.readArray(array.get(), i),
                      rsim.readArray(array.get(), i))
                << "seed " << GetParam() << " array " << array->name();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsmDispatchFuzzTest,
                         ::testing::Range(uint64_t(1), uint64_t(61)));

/**
 * The seeds above must reach every shape the switch pass handles:
 * formed switches, chains cut by a far key, and chains cut by an
 * enclosing guard (whose first arms keep their guards).
 */
TEST(FsmDispatchShapes, SeedsReachEveryChainShape)
{
    size_t switched = 0, far = 0, cut_enclosed = 0, missed = 0;
    for (uint64_t seed = 1; seed < 61; ++seed) {
        RandomFsmDesign gen(seed);
        auto sys = gen.build();
        auto prog = sim::Program::compile(*sys);
        size_t sw = countOp(*prog, sim::DOp::kSwitch);
        switched += sw > 0;
        far += sw > 0 && gen.far_key;
        cut_enclosed +=
            sw > 0 && gen.enclosed && countOp(*prog, sim::DOp::kSkipIfNeImm);
        sim::Simulator s(prog);
        s.run(200);
        for (const std::string &line : s.logOutput())
            missed += sw > 0 && line.find("miss ") != std::string::npos;
    }
    EXPECT_GT(switched, 10u);
    EXPECT_GT(far, 0u);
    EXPECT_GT(cut_enclosed, 0u);
    EXPECT_GT(missed, 0u);
}

/**
 * The batch form of the alignment claim (sim/sweep.h): the same run
 * configs — clean and fault-injected — go through the sweep runner on
 * 4 workers against each backend, every instance executing over ONE
 * shared compiled artifact (a sim::Program / a const rtl::Netlist).
 * Every paired instance must agree exactly, so the Q5 guarantee
 * survives both the compile/run split and concurrent execution.
 */
TEST(AlignmentSweepTest, SweepRunnerAlignsAcrossBackends)
{
    for (uint64_t seed : {uint64_t(3), uint64_t(17), uint64_t(42)}) {
        RandomDesign gen(seed);
        auto sys = gen.build();
        auto prog = sim::Program::compile(*sys);
        const rtl::Netlist nl(*sys);
        ASSERT_TRUE(nl.levelized()) << "seed " << seed;

        std::vector<sim::RunConfig> configs;
        {
            sim::RunConfig clean;
            clean.name = "clean";
            clean.max_cycles = 200;
            configs.push_back(clean);
        }
        for (uint64_t f = 0; f < 3; ++f) {
            sim::RunConfig cfg;
            cfg.name = "fault" + std::to_string(f);
            cfg.max_cycles = 200;
            sim::FaultSpec spec;
            spec.seed = seed * 7919 + 13 + f;
            spec.count = 3;
            spec.first_cycle = 5;
            spec.last_cycle = 30;
            cfg.fault = spec;
            configs.push_back(cfg);
        }

        sim::SweepReport ev =
            sim::runSweep(configs, sim::eventInstance(prog), 4);
        sim::SweepReport rt = sim::runSweep(
            configs,
            sim::instanceOf(*sys,
                            [&](const sim::RunConfig &cfg) {
                                rtl::NetlistSimOptions o;
                                o.capture_logs = cfg.sim.capture_logs;
                                return std::make_unique<rtl::NetlistSim>(
                                    nl, o);
                            }),
            4);

        ASSERT_EQ(ev.runs.size(), configs.size());
        ASSERT_EQ(rt.runs.size(), configs.size());
        for (size_t i = 0; i < configs.size(); ++i) {
            EXPECT_EQ(ev.runs[i].result.status, rt.runs[i].result.status)
                << "seed " << seed << " run " << configs[i].name;
            EXPECT_EQ(ev.runs[i].result.cycles, rt.runs[i].result.cycles)
                << "seed " << seed << " run " << configs[i].name;
            EXPECT_EQ(ev.runs[i].result.error, rt.runs[i].result.error)
                << "seed " << seed << " run " << configs[i].name;
            EXPECT_EQ(ev.runs[i].logs, rt.runs[i].logs)
                << "seed " << seed << " run " << configs[i].name;
            EXPECT_TRUE(ev.runs[i].metrics == rt.runs[i].metrics)
                << "seed " << seed << " run " << configs[i].name
                << " metrics diverged:\n"
                << ev.runs[i].metrics.diff(rt.runs[i].metrics);
        }
        EXPECT_EQ(ev.merged().toJson("fuzz"), rt.merged().toJson("fuzz"))
            << "seed " << seed;
    }
}

} // namespace
} // namespace assassyn
