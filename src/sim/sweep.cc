#include "sim/sweep.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "support/json.h"
#include "support/logging.h"
#include "support/profiler.h"

namespace assassyn {
namespace sim {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

void
parallelFor(size_t n, const std::function<void(size_t)> &fn,
            size_t workers)
{
    if (n == 0)
        return;
    if (workers > n)
        workers = n;
    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<size_t> next{0};
    std::mutex err_mutex;
    std::exception_ptr first_error;
    auto work = [&] {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            // After a failure, drain the remaining indices without
            // running them: the pool still joins promptly and the
            // first error is what the caller sees.
            {
                std::lock_guard<std::mutex> lock(err_mutex);
                if (first_error)
                    continue;
            }
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(err_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w)
        pool.emplace_back([&, w] {
            // Stable per-worker host-timeline track names, so a
            // profiled runSweep renders one row per worker thread.
            if (HostProfiler::instance().enabled())
                HostProfiler::setThreadName("worker-" + std::to_string(w));
            work();
        });
    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

bool
SweepReport::allOk() const
{
    for (const InstanceResult &run : runs)
        if (!run.result.ok())
            return false;
    return true;
}

MetricsRegistry
SweepReport::merged() const
{
    MetricsRegistry out;
    for (const InstanceResult &run : runs) {
        for (const auto &[key, value] : run.metrics.counters()) {
            // high_water counters describe a maximum, not traffic:
            // merging sums would fabricate an occupancy no run saw.
            if (key.size() >= 10 &&
                key.compare(key.size() - 10, 10, "high_water") == 0) {
                if (value > out.counter(key))
                    out.set(key, value);
            } else {
                out.add(key, value);
            }
        }
        for (const auto &[key, hist] : run.metrics.histograms()) {
            Histogram &dst = out.histogram(key);
            if (dst.buckets.size() < hist.buckets.size())
                dst.buckets.resize(hist.buckets.size(), 0);
            for (size_t i = 0; i < hist.buckets.size(); ++i)
                dst.buckets[i] += hist.buckets[i];
            if (hist.high_water > dst.high_water)
                dst.high_water = hist.high_water;
            dst.samples += hist.samples;
        }
    }
    return out;
}

std::string
SweepReport::toJson(const std::string &design) const
{
    JsonWriter w;
    w.beginObject();
    w.key("schema");
    w.value("assassyn.sweep.v3");
    w.key("design");
    w.value(design);
    w.key("workers");
    w.value(uint64_t(workers));
    w.key("seconds");
    w.value(seconds);
    w.key("runs");
    w.beginArray();
    for (const InstanceResult &run : runs) {
        w.beginObject();
        w.key("name");
        w.value(run.name);
        w.key("status");
        w.value(runStatusName(run.result.status));
        w.key("cycles");
        w.value(run.result.cycles);
        w.key("end_cycle");
        w.value(run.end_cycle);
        w.key("seconds");
        w.value(run.seconds);
        if (!run.result.error.empty()) {
            w.key("error");
            w.value(run.result.error);
        }
        if (run.repro) {
            ReproSpec spec = *run.repro;
            spec.design = design;
            w.key("repro");
            w.value(spec.toCommand());
        }
        w.key("metrics");
        run.metrics.writeJson(w);
        w.endObject();
    }
    w.endArray();
    w.key("merged");
    merged().writeJson(w);
    w.endObject();
    return w.str() + "\n";
}

void
SweepReport::write(const std::string &path,
                   const std::string &design) const
{
    // The locked writer leases the path for the process lifetime of the
    // file object, so two concurrent sweeps handed the same report path
    // fail with a structured collision diagnostic instead of
    // interleaving output.
    OutputFile out(path);
    out.write(toJson(design));
}

namespace {

/**
 * Run one instance, turning an exception that escapes it into the
 * run's kFault record, so one instance's failure never aborts its
 * siblings.
 */
InstanceResult
runIsolated(const RunConfig &cfg, const InstanceFn &instance)
{
    std::string error;
    try {
        return instance(cfg);
    } catch (const std::exception &e) {
        error = e.what();
    } catch (...) {
        error = "unknown exception";
    }
    InstanceResult out;
    out.name = cfg.name;
    out.result.status = RunStatus::kFault;
    out.result.error = std::move(error);
    return out;
}

/**
 * Attach the repro recipe when a run ended badly: a watchdog or fault
 * verdict. The until cycle is where the instance actually stopped;
 * report rendering fills in the design name (see SweepReport::toJson).
 */
void
attachRepro(InstanceResult &out, const RunConfig &cfg)
{
    if (out.result.status == RunStatus::kFinished ||
        out.result.status == RunStatus::kMaxCycles)
        return;
    ReproSpec spec;
    spec.shuffle = cfg.sim.shuffle;
    spec.shuffle_seed = cfg.sim.shuffle_seed;
    spec.fault = cfg.fault;
    spec.ckpt = cfg.resume_from;
    spec.max_cycles = cfg.max_cycles;
    spec.until = out.end_cycle;
    out.repro = spec;
}

} // namespace

SweepReport
runSweep(const std::vector<RunConfig> &configs,
         const InstanceFn &instance, size_t workers)
{
    SweepReport report;
    report.workers = workers ? workers : 1;
    report.runs.resize(configs.size());
    auto batch_start = std::chrono::steady_clock::now();
    parallelFor(
        configs.size(),
        [&](size_t i) {
            // Each index writes only its own preallocated result slot,
            // so the batch needs no synchronization beyond the pool's
            // index counter — and results keep RunConfig order.
            auto start = std::chrono::steady_clock::now();
            HostProfiler::Scope span("run:" + configs[i].name);
            report.runs[i] = runIsolated(configs[i], instance);
            report.runs[i].seconds = secondsSince(start);
            attachRepro(report.runs[i], configs[i]);
        },
        report.workers);
    report.seconds = secondsSince(batch_start);
    return report;
}

RunResult
runSliced(Engine &engine, uint64_t max_cycles, uint64_t every,
          const std::function<void()> &at_boundary)
{
    RunResult res;
    uint64_t total = 0;
    for (;;) {
        uint64_t at = engine.cycle();
        uint64_t remaining = max_cycles > at ? max_cycles - at : 0;
        res = engine.run(every && every < remaining ? every : remaining);
        total += res.cycles;
        // Anything but a clean out-of-budget slice ends the run:
        // finish, fault, and watchdog verdicts are terminal, and a
        // kMaxCycles at the full budget is the caller's budget limit.
        if (res.status != RunStatus::kMaxCycles ||
            engine.cycle() >= max_cycles)
            break;
        if (every)
            at_boundary();
    }
    res.cycles = total;
    return res;
}

InstanceFn
instanceOf(EngineFactory make)
{
    return [make = std::move(make)](const RunConfig &cfg) {
        InstanceResult out;
        out.name = cfg.name;
        std::unique_ptr<Engine> sim = make(cfg);
        std::optional<FaultInjector> inj;
        if (cfg.fault) {
            inj.emplace(sim->sys(), *cfg.fault);
            inj->attach(*sim);
        }
        if (!cfg.resume_from.empty())
            sim->restore(loadCheckpoint(cfg.resume_from));
        const bool periodic = cfg.ckpt_every > 0 && !cfg.ckpt_path.empty();
        out.result = runSliced(
            *sim, cfg.max_cycles, periodic ? cfg.ckpt_every : 0,
            [&] { saveCheckpoint(sim->snapshot(), cfg.ckpt_path); });
        out.end_cycle = sim->cycle();
        out.metrics = sim->metrics();
        out.logs = sim->logOutput();
        return out;
    };
}

InstanceFn
eventInstance(std::shared_ptr<const Program> program)
{
    return instanceOf([program](const RunConfig &cfg) {
        return std::make_unique<Simulator>(program, cfg.sim);
    });
}

} // namespace sim
} // namespace assassyn
