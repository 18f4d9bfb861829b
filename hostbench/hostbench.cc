/**
 * @file
 * Host-time benchmark program for the Rockcress simulator.
 *
 *   hostbench --workload W [--seed N] [--seconds S] [--trace 0|1]
 *             [--work-dir DIR] [--trace-out FILE]
 *             [--subset N] [--force-fail] [--setup-only [--spawn-ns T]]
 *
 * Runs one workload (fig10_sweep, sim_busy, sim_quiet, verify_suite;
 * see README.md) through the simulator's public entry points, checks
 * every result, and prints each metric as "metric <name> <value>
 * <unit>" followed by one JSON line. Timed repetitions run until
 * --seconds have passed (at least one); times are medians over them.
 *
 * With --trace 1 one more repetition replays every point step by step
 * (Machine constructor, Benchmark::prepare, verifyProgram,
 * computePerfBound, Machine::run, Benchmark::check; around them the
 * ExperimentEngine cache calls on fig10_sweep) inside host-time spans,
 * checks the replay against the untraced results, reports per-layer
 * metrics and self times, and writes the spans as Chrome trace-event
 * JSON to --trace-out.
 *
 * --setup-only stops before the first timed operation and, given the
 * parent's CLOCK_MONOTONIC spawn time T in ns, prints "setup_s <s>".
 * The seed only permutes the order in which points are submitted.
 * Exit status: 0 when every check passed, 1 when a point failed (the
 * result line is still printed), 2 on a usage error.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/perfbound.hh"
#include "analysis/verifier.hh"
#include "exp/cache.hh"
#include "exp/engine.hh"
#include "exp/json.hh"
#include "exp/pool.hh"
#include "exp/result_io.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "spans.hh"

using namespace rockcress;
namespace fs = std::filesystem;
using hostbench::Span;
using hostbench::SpanRecord;
using hostbench::SpanRecorder;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------

struct Point
{
    std::string bench;
    std::string config;
    RunOverrides overrides;

    std::string label() const { return bench + "/" + config; }
};

const std::vector<std::string> kFig10Configs = {"NV", "NV_PF", "V4",
                                                "V16"};

void
cross(std::vector<Point> &out, const std::vector<std::string> &benches,
      const std::vector<std::string> &configs)
{
    for (const std::string &b : benches)
        for (const std::string &c : configs)
            out.push_back({b, c, {}});
}

/**
 * The points of a workload in canonical order (README.md says why
 * each was chosen). Empty for an unknown name.
 */
std::vector<Point>
workloadPoints(const std::string &name)
{
    std::vector<Point> pts;
    if (name == "fig10_sweep" || name == "verify_suite") {
        cross(pts, suiteNames(), kFig10Configs);
    } else if (name == "sim_busy") {
        // Low skip fractions (0.44-0.6): most component ticks execute.
        cross(pts, {"3dconv"}, {"NV_PF", "V4", "V16"});
        cross(pts, {"atax", "bicg", "mvt", "gesummv"}, {"V4", "V16"});
    } else if (name == "sim_quiet") {
        // Skip fractions >= 0.94: the scheduler's skip and idle-jump
        // path does the work.
        cross(pts, {"fdtd-2d", "atax", "bicg", "mvt", "gesummv",
                    "gramschm"},
              {"NV"});
        cross(pts, {"gramschm"}, {"V16"});
    }
    return pts;
}

/** Submission order of repetition `rep`: a seeded Fisher-Yates. */
std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed, int rep)
{
    std::seed_seq seq{static_cast<std::uint32_t>(seed),
                      static_cast<std::uint32_t>(seed >> 32),
                      static_cast<std::uint32_t>(rep)};
    std::mt19937_64 rng(seq);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng() % i]);
    return order;
}

/** Machine parameters exactly as runManycore derives them. */
MachineParams
paramsFor(const BenchConfig &cfg, const RunOverrides &o)
{
    MachineParams params = machineFor(cfg, o.cols, o.rows);
    params.dramBytesPerCycle = o.dramBytesPerCycle;
    params.llcTotalBytes =
        o.llcBankBytes * static_cast<Addr>(params.numBanks());
    params.nocWidthWords = o.nocWidthWords;
    return params;
}

// --------------------------------------------------------------------
// Step-by-step replay of one point
// --------------------------------------------------------------------

/** Simulated work counts a replay reads from the StatRegistry. */
const std::vector<std::string> kSimCounters = {
    "core.issued",      "core.cycles",        "core.stall_frame",
    "core.stall_inet",  "core.stall_backpressure",
    "core.icache_accesses",
    "noc.word_hops",    "noc.packets",        "inet.sends",
    "llc.accesses",     "llc.misses",         "dram.bytes",
    "spad.network_writes"};

struct Replay
{
    bool ok = false;
    std::string error;
    double ipcBound = 0;
    Cycle cycles = 0;
    std::uint64_t ticks = 0;
    std::uint64_t skips = 0;
    double energyPj = 0;
    double llcMissRate = 0;
    std::map<std::string, std::uint64_t> counters;
};

/**
 * Run a point the way runManycore does, one public call at a time,
 * each inside a span (no-op spans when rec is null). Without
 * `simulate` it stops after the static analyses.
 */
Replay
replay(SpanRecorder *rec, const Point &p, bool simulate)
{
    Replay out;
    try {
        BenchConfig cfg = configByName(p.config);
        MachineParams params = paramsFor(cfg, p.overrides);
        std::unique_ptr<Machine> machine;
        {
            Span s(rec, "machine.build");
            machine = std::make_unique<Machine>(params);
        }
        auto bench = makeBenchmark(p.bench);
        std::shared_ptr<const Program> program;
        {
            Span s(rec, "kernels.prepare");
            program = bench->prepare(*machine, cfg);
        }
        VerifyReport report;
        {
            Span s(rec, "analysis.verify");
            report = verifyProgram(*program, cfg, params);
        }
        if (!report.ok()) {
            out.error = report.text(*program);
            return out;
        }
        {
            Span s(rec, "analysis.perfbound");
            out.ipcBound = computePerfBound(*program, cfg, params).ipcBound;
        }
        if (!simulate) {
            out.ok = true;
            return out;
        }
        {
            Span s(rec, "sim.run");
            out.cycles = machine->run(p.overrides.maxCycles);
        }
        {
            Span s(rec, "kernels.check");
            out.error = bench->check(machine->mem());
        }
        out.ok = out.error.empty();
        out.ticks = machine->ticksExecuted();
        out.skips = machine->ticksSkipped();

        const StatRegistry &st = machine->stats();
        auto &c = out.counters;
        c["core.issued"] = st.sumSuffix(".issued");
        c["core.cycles"] = st.sumSuffix(".cycles");
        c["core.stall_frame"] = st.sumSuffix(".stall_frame");
        c["core.stall_inet"] = st.sumSuffix(".stall_inet_input");
        c["core.stall_backpressure"] =
            st.sumSuffix(".stall_backpressure");
        c["core.icache_accesses"] = st.sumSuffix("icache.accesses");
        c["noc.word_hops"] = st.get("noc.word_hops");
        c["noc.packets"] = st.get("noc.packets");
        c["inet.sends"] = st.get("inet.sends");
        for (int b = 0; b < params.numBanks(); ++b) {
            std::string pre = "llc" + std::to_string(b) + ".";
            c["llc.accesses"] += st.get(pre + "accesses");
            c["llc.misses"] += st.get(pre + "misses");
        }
        c["dram.bytes"] = st.get("dram.bytes");
        c["spad.network_writes"] = st.sumSuffix(".spad.network_writes");
        out.llcMissRate =
            c["llc.accesses"] == 0
                ? 0.0
                : static_cast<double>(c["llc.misses"]) /
                      static_cast<double>(c["llc.accesses"]);
        out.energyPj =
            computeEnergy(st, params.core.simdWidth).total();
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    return out;
}

/**
 * Empty when a replay reproduces the untraced runManycore result:
 * same simulated cycles, scheduler work and counters.
 */
std::string
replayMismatch(const Replay &rp, const RunResult &r)
{
    if (!rp.ok || !r.ok)
        return "failed: " + (rp.ok ? r.error : rp.error);
    const std::map<std::string, std::uint64_t> want = {
        {"core.issued", r.issued},
        {"core.cycles", r.coreCycles},
        {"core.stall_frame", r.stallFrame},
        {"core.stall_inet", r.stallInet},
        {"core.stall_backpressure", r.stallBackpressure},
        {"core.icache_accesses", r.icacheAccesses},
        {"noc.word_hops", r.nocWordHops}};
    for (const auto &[name, v] : want)
        if (rp.counters.at(name) != v)
            return "replay " + name + " differs";
    if (rp.cycles != r.cycles)
        return "replay cycles differ";
    if (rp.ticks != r.diag.simTicks || rp.skips != r.diag.simSkips)
        return "replay scheduler ticks/skips differ";
    if (rp.energyPj != r.energyPj || rp.llcMissRate != r.llcMissRate)
        return "replay energy or LLC miss rate differs";
    if (rp.ipcBound != r.staticIpcBound)
        return "replay static IPC bound differs";
    return "";
}

/** The engine's cache probe for one point, in two spans. */
bool
probeCache(SpanRecorder *rec, const ResultCache &cache, const Point &p,
           std::string &key, RunResult &hit)
{
    {
        Span s(rec, "exp.cache_key");
        key = ExperimentEngine::cacheKey({p.bench, p.config, p.overrides});
    }
    Span s(rec, "exp.cache_load");
    return cache.load(key, hit);
}

// --------------------------------------------------------------------
// Benchmark state
// --------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool setupOnly = false;
    /** CLOCK_MONOTONIC ns at which the parent spawned this process. */
    std::uint64_t spawnNs = 0;
    bool forceFail = false;
    std::size_t subset = 0;
    std::string workDir = "hostbench-work";
    std::string traceOut;
};

/**
 * Correctness bookkeeping. Every point is attempted once and fails when
 * any of its checks (cold, warm, repeat, traced) fails.
 */
struct Tally
{
    std::mutex mutex;
    std::vector<char> failed;  ///< One flag per point; guarded by mutex.

    void
    record(std::size_t point, const std::string &what,
           const std::string &error)
    {
        if (error.empty())
            return;
        std::lock_guard<std::mutex> lock(mutex);
        failed.at(point) = 1;
        // First line only: verifier reports run to many lines.
        std::cerr << "FAIL " << what << ": "
                  << error.substr(0, error.find('\n')) << "\n";
    }

    std::uint64_t attempted() const { return failed.size(); }
    std::uint64_t
    failures() const
    {
        return static_cast<std::uint64_t>(
            std::count(failed.begin(), failed.end(), 1));
    }
};

/** One untraced repetition's outcome, in canonical point order. */
struct Rep
{
    double wall = 0;
    double warmWall = 0;
    std::vector<RunResult> results;     ///< fig10 cold / sim points.
    std::vector<double> bounds;         ///< verify_suite IPC bounds.
    SweepStats cold, warm;
};

class Bench
{
  public:
    explicit Bench(Args a) : args_(std::move(a)) {}

    /**
     * Everything before the first timed operation: build the point
     * list and benchmarks, derive the submission order, start the
     * engine on an empty cache directory. @return false on bad args.
     */
    bool setup();

    /** Timed repetitions, then the traced one; prints the metrics. */
    int run();

    /** Remove the scratch directories this process created. */
    void cleanup();

  private:
    bool isSweep() const { return args_.workload == "fig10_sweep"; }
    bool simulates() const { return args_.workload != "verify_suite"; }

    std::string freshCacheDir(const std::string &tag);
    /** A new engine on a new, empty cache directory. */
    void startEngine(int rep);
    std::vector<std::size_t> order(int rep) const
    {
        return permutation(points_.size(), args_.seed, rep);
    }

    Rep untracedRep(int rep);
    void traced(const Rep &ref);
    void headline(const std::vector<RunResult> &cold);
    void put(const std::string &name, double value,
             const std::string &unit)
    {
        metrics_.push_back({name, value, unit});
    }

    Args args_;
    int jobs_ = 1;
    std::vector<Point> points_;
    std::string runDir_;
    std::unique_ptr<ExperimentEngine> engine_;
    std::string cacheDir_;
    Tally tally_;

    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
};

bool
Bench::setup()
{
    points_ = workloadPoints(args_.workload);
    if (points_.empty()) {
        std::cerr << "hostbench: unknown workload '" << args_.workload
                  << "' (fig10_sweep, sim_busy, sim_quiet, "
                     "verify_suite)\n";
        return false;
    }
    if (args_.subset > 0 && args_.subset < points_.size())
        points_.resize(args_.subset);
    tally_.failed.assign(points_.size(), 0);
    if (args_.forceFail) {
        if (!simulates()) {
            std::cerr << "hostbench: --force-fail needs a simulating "
                         "workload\n";
            return false;
        }
        // A watchdog far below the point's runtime: its run must fail
        // and be counted, not abort the benchmark.
        points_[0].overrides.maxCycles = 64;
    }
    // Suite construction: every benchmark and configuration resolves.
    std::set<std::string> names;
    for (const Point &p : points_) {
        if (names.insert(p.bench).second)
            makeBenchmark(p.bench);
        configByName(p.config);
    }
    // Leave one core to the OS and the harness: on a 4-core host,
    // four workers made the cold sweep's wall time spread over 18%
    // between runs, three workers over 3%.
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    jobs_ = std::clamp(hw - 1, 1, 4);

    runDir_ = args_.workDir + "/run-" + std::to_string(::getpid());
    fs::remove_all(runDir_);
    fs::create_directories(runDir_);
    if (isSweep())
        startEngine(0);
    return true;
}

void
Bench::startEngine(int rep)
{
    if (!cacheDir_.empty())
        fs::remove_all(cacheDir_);
    cacheDir_ = freshCacheDir("cache" + std::to_string(rep));
    ExperimentEngine::Options eo;
    eo.jobs = jobs_;
    eo.cacheDir = cacheDir_;
    eo.progress = false;
    eo.audit = 0;
    engine_ = std::make_unique<ExperimentEngine>(eo);
}

void
Bench::cleanup()
{
    if (runDir_.empty())
        return;
    fs::remove_all(runDir_);
    std::error_code ec;
    fs::remove(args_.workDir, ec);  // Only if no other run uses it.
}

std::string
Bench::freshCacheDir(const std::string &tag)
{
    std::string dir = runDir_ + "/" + tag;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

Rep
Bench::untracedRep(int rep)
{
    Rep out;
    std::vector<std::size_t> ord = order(rep);
    std::size_t n = points_.size();
    if (isSweep()) {
        if (rep > 0)
            startEngine(rep);  // Untimed: every repetition starts cold.
        std::vector<RunPoint> rp;
        for (std::size_t i : ord)
            rp.push_back({points_[i].bench, points_[i].config,
                          points_[i].overrides});
        auto t0 = Clock::now();
        std::vector<RunResult> cold = engine_->sweep(rp);
        out.wall = since(t0);
        out.cold = engine_->lastSweep();
        t0 = Clock::now();
        std::vector<RunResult> warm = engine_->sweep(rp);
        out.warmWall = since(t0);
        out.warm = engine_->lastSweep();

        out.results.resize(n);
        for (std::size_t k = 0; k < n; ++k) {
            std::size_t i = ord[k];
            const std::string what = points_[i].label();
            tally_.record(i, what + " cold",
                          cold[k].ok ? "" : cold[k].error);
            tally_.record(i, what + " warm",
                          !warm[k].ok           ? warm[k].error
                          : warm[k] == cold[k] ? ""
                                               : "warm result differs "
                                                 "from cold result");
            out.results[i] = std::move(cold[k]);
        }
    } else if (simulates()) {
        out.results.resize(n);
        auto t0 = Clock::now();
        for (std::size_t i : ord)
            out.results[i] = runManycore(points_[i].bench,
                                         points_[i].config,
                                         points_[i].overrides);
        out.wall = since(t0);
        for (std::size_t i = 0; i < n; ++i)
            tally_.record(i, points_[i].label(),
                          out.results[i].ok ? "" : out.results[i].error);
    } else {
        out.bounds.assign(n, 0.0);
        std::vector<std::string> errors(n);
        auto t0 = Clock::now();
        for (std::size_t i : ord) {
            Replay r = replay(nullptr, points_[i], false);
            out.bounds[i] = r.ipcBound;
            errors[i] = r.ok ? "" : r.error;
        }
        out.wall = since(t0);
        for (std::size_t i = 0; i < n; ++i)
            tally_.record(i, points_[i].label(), errors[i]);
    }
    return out;
}

void
Bench::headline(const std::vector<RunResult> &byPoint)
{
    // Fig. 10 headline exactly as bench/fig10_main_results computes
    // it, over every benchmark whose four points are present.
    std::map<std::string, std::map<std::string, const RunResult *>> by;
    for (std::size_t i = 0; i < points_.size(); ++i)
        by[points_[i].bench][points_[i].config] = &byPoint[i];
    std::vector<double> sp_pf, sp_best, en_pf, en_best;
    for (const auto &[bench, cfgs] : by) {
        if (cfgs.size() != kFig10Configs.size())
            continue;
        const RunResult &nv = *cfgs.at("NV");
        const RunResult &pf = *cfgs.at("NV_PF");
        const RunResult &best = betterOf(*cfgs.at("V4"), *cfgs.at("V16"));
        if (!nv.ok || !pf.ok || !best.ok)
            continue;
        double base = static_cast<double>(nv.cycles);
        sp_pf.push_back(base / static_cast<double>(pf.cycles));
        sp_best.push_back(base / static_cast<double>(best.cycles));
        en_pf.push_back(pf.energyPj / nv.energyPj);
        en_best.push_back(best.energyPj / nv.energyPj);
    }
    double speedup = sp_pf.empty() ? 0 : geomean(sp_best) / geomean(sp_pf);
    double energy = en_pf.empty() ? 0 : geomean(en_best) / geomean(en_pf);
    std::cout << "headline BEST_V speedup over NV_PF " << speedup
              << "x (paper 1.7x), energy " << energy
              << "x (paper 0.78x) over " << sp_pf.size()
              << " benchmarks\n";
    // Paper references: EXPERIMENTS.md, Fig. 10 (simulated metrics).
    put("speedup_err", std::fabs(speedup / 1.7 - 1), "fraction");
    put("energy_err", std::fabs(energy / 0.78 - 1), "fraction");
}

int
Bench::run()
{
    std::cout << "workload " << args_.workload << " seed " << args_.seed
              << " points " << points_.size() << " jobs " << jobs_
              << "\n";
    std::cout << "order";
    for (std::size_t i : order(0))
        std::cout << " " << points_[i].label();
    std::cout << "\n";
    std::vector<Rep> reps;
    auto start = Clock::now();
    do {
        reps.push_back(untracedRep(static_cast<int>(reps.size())));
        // Every repetition must reproduce the first exactly.
        const Rep &first = reps.front(), &last = reps.back();
        std::printf("rep %zu wall_s %.6f warm_wall_s %.6f\n",
                    reps.size() - 1, last.wall, last.warmWall);
        if (reps.size() > 1) {
            for (std::size_t i = 0; i < points_.size(); ++i) {
                bool same = simulates()
                                ? last.results[i] == first.results[i]
                                : last.bounds[i] == first.bounds[i];
                tally_.record(i, points_[i].label() + " repeat",
                              same ? "" : "differs between repetitions");
            }
        }
    } while (since(start) < args_.seconds);

    std::vector<double> walls, warms;
    for (const Rep &r : reps) {
        walls.push_back(r.wall);
        warms.push_back(r.warmWall);
    }
    std::cout << "repetitions " << reps.size() << "\n";
    put("wall_s", median(walls), "s");
    put("warm_wall_s", median(warms), "s");
    if (isSweep())
        headline(reps.front().results);
    else {
        put("speedup_err", 0, "fraction");
        put("energy_err", 0, "fraction");
    }

    // Before the traced repetition, so both runs report the same peak.
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    put("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
    if (args_.trace)
        traced(reps.front());
    put("fail_frac",
        static_cast<double>(tally_.failures()) /
            static_cast<double>(tally_.attempted()),
        "fraction");

    Json metrics = Json::object();
    for (const Metric &m : metrics_) {
        std::printf("metric %-28s %.12g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        Json v = Json::object();
        v["value"] = m.value;
        v["unit"] = m.unit;
        metrics[m.name] = std::move(v);
    }
    Json doc = Json::object();
    doc["workload"] = args_.workload;
    doc["seed"] = args_.seed;
    doc["correct"] = tally_.failures() == 0;
    doc["attempted"] = tally_.attempted();
    doc["failed"] = tally_.failures();
    doc["metrics"] = std::move(metrics);
    std::cout << doc.dump() << std::endl;
    return tally_.failures() == 0 ? 0 : 1;
}

void
Bench::traced(const Rep &ref)
{
    SpanRecorder rec;
    std::vector<std::size_t> ord = order(0);
    std::size_t n = points_.size();
    std::vector<Replay> replays(n);
    std::vector<int> phases;
    double tracedWall = 0;

    if (isSweep()) {
        // The engine's per-point job (cache key, load, simulate on a
        // miss, store) rebuilt from its public calls on the same pool.
        ResultCache cache(freshCacheDir("traced"));
        auto onPool = [&](const std::string &phaseName,
                          const std::string &pointName, auto job) {
            Span phase(&rec, phaseName);
            phases.push_back(phase.id());
            ThreadPool pool(jobs_);
            for (std::size_t i : ord) {
                pool.submit([&, i, parent = phase.id()] {
                    Span ps(&rec, pointName, static_cast<int>(i), parent);
                    std::string err;
                    try {
                        err = job(i);
                    } catch (const std::exception &e) {
                        err = e.what();
                    }
                    tally_.record(i, points_[i].label() + " " + phaseName,
                                  err);
                });
            }
            pool.wait();
        };
        auto t0 = Clock::now();
        onPool("bench.cold", "point.run", [&](std::size_t i) {
            std::string key;
            RunResult hit;
            bool found = probeCache(&rec, cache, points_[i], key, hit);
            replays[i] = replay(&rec, points_[i], true);
            const RunResult &want = ref.results[i];
            {
                Span s(&rec, "exp.serialize");
                (void)resultToJson(want).dump();
            }
            if (want.ok) {
                Span s(&rec, "exp.cache_store");
                cache.store(key, want);
            }
            return found ? std::string("hit in an empty cache")
                         : replayMismatch(replays[i], want);
        });
        onPool("bench.warm", "point.load", [&](std::size_t i) {
            std::string key;
            RunResult hit;
            if (!probeCache(&rec, cache, points_[i], key, hit))
                return std::string("cache miss after the cold phase");
            return std::string(hit == ref.results[i]
                                   ? ""
                                   : "loaded result differs");
        });
        tracedWall = since(t0);
    } else {
        auto t0 = Clock::now();
        Span phase(&rec, "bench.replay");
        phases.push_back(phase.id());
        for (std::size_t i : ord) {
            Span ps(&rec, "point.run", static_cast<int>(i));
            replays[i] = replay(&rec, points_[i], simulates());
            std::string err;
            if (simulates())
                err = replayMismatch(replays[i], ref.results[i]);
            else if (!replays[i].ok)
                err = replays[i].error;
            else if (replays[i].ipcBound != ref.bounds[i])
                err = "replay static IPC bound differs";
            tally_.record(i, points_[i].label() + " traced", err);
        }
        tracedWall = since(t0);
    }

    std::vector<SpanRecord> spans = rec.spans();
    std::map<std::string, double> sec = hostbench::secondsByName(spans);
    auto total = [&](const std::string &name) {
        auto it = sec.find(name);
        return it == sec.end() ? 0.0 : it->second;
    };

    // sim: host time in Machine::run against the work it did.
    double runS = total("sim.run");
    std::uint64_t ticks = 0, skips = 0, cycles = 0;
    std::map<std::string, std::uint64_t> counts;
    for (const std::string &c : kSimCounters)
        counts[c] = 0;
    for (const Replay &r : replays) {
        ticks += r.ticks;
        skips += r.skips;
        cycles += r.cycles;
        for (const auto &[name, v] : r.counters)
            counts[name] += v;
    }
    put("sim.run_s", runS, "s");
    put("sim.mcps", runS > 0 ? static_cast<double>(cycles) / runS / 1e6 : 0,
        "Mcycle/s");
    put("sim.ns_per_tick",
        ticks > 0 ? runS / static_cast<double>(ticks) * 1e9 : 0, "ns");
    put("sim.ticks", static_cast<double>(ticks), "count");
    put("sim.skips", static_cast<double>(skips), "count");
    put("sim.skip_frac",
        ticks + skips > 0 ? static_cast<double>(skips) /
                                static_cast<double>(ticks + skips)
                          : 0,
        "fraction");
    for (const auto &[name, v] : counts)
        put(name, static_cast<double>(v),
            name == "dram.bytes" ? "B" : "count");

    std::vector<double> verifyMs;
    for (const SpanRecord &s : spans)
        if (s.name == "analysis.verify")
            verifyMs.push_back(s.seconds() * 1e3);
    put("analysis.verify_s", total("analysis.verify"), "s");
    put("analysis.verify_p50_ms", median(verifyMs), "ms");
    put("analysis.verify_max_ms",
        verifyMs.empty() ? 0
                         : *std::max_element(verifyMs.begin(),
                                             verifyMs.end()),
        "ms");
    put("analysis.perfbound_s", total("analysis.perfbound"), "s");
    put("machine.build_s", total("machine.build"), "s");
    put("kernels.prepare_s", total("kernels.prepare"), "s");
    put("kernels.check_s", total("kernels.check"), "s");
    put("exp.cache_key_s", total("exp.cache_key"), "s");
    put("exp.cache_load_s", total("exp.cache_load"), "s");
    put("exp.cache_store_s", total("exp.cache_store"), "s");
    put("exp.serialize_s", total("exp.serialize"), "s");
    put("exp.cache_hits",
        static_cast<double>(ref.cold.cacheHits + ref.warm.cacheHits),
        "count");
    put("exp.simulated",
        static_cast<double>(ref.cold.simulated + ref.warm.simulated),
        "count");
    double idle = 0;
    if (isSweep()) {
        const SpanRecord &cold = spans[static_cast<std::size_t>(phases[0])];
        double busy = 0;
        for (const SpanRecord &s : spans)
            if (s.parent == phases[0])
                busy += s.seconds();
        idle = 1 - busy / (jobs_ * cold.seconds());
    }
    put("exp.pool_idle_frac", idle, "fraction");
    double untracedWall = ref.wall + ref.warmWall;
    put("bench.trace_overhead_frac", tracedWall / untracedWall - 1,
        "fraction");

    // Self time per layer within each phase: where the host time went.
    for (int ph : phases) {
        const SpanRecord &root = spans[static_cast<std::size_t>(ph)];
        auto self = hostbench::selfTimeByLayer(spans, ph);
        double all = 0;
        for (const auto &[layer, s] : self)
            all += s;
        std::printf("self-time %s (%.3f s wall, %.3f s self in total)\n",
                    root.name.c_str(), root.seconds(), all);
        for (const auto &[layer, s] : self)
            std::printf("  %-10s %10.4f s %6.1f%%\n", layer.c_str(), s,
                        all > 0 ? 100 * s / all : 0);
    }

    if (!args_.traceOut.empty()) {
        std::map<int, std::string> labels;
        for (std::size_t i = 0; i < n; ++i)
            labels[static_cast<int>(i)] = points_[i].label();
        if (!hostbench::writeChromeTrace(args_.traceOut, spans, labels))
            throw std::runtime_error("cannot write " + args_.traceOut);
        std::cout << "trace " << args_.traceOut << " (" << spans.size()
                  << " spans)\n";
    }
}

// --------------------------------------------------------------------
// Command line
// --------------------------------------------------------------------

/** Strict full-string number parse; throws on anything else. */
double
number(const std::string &flag, const std::string &text, double lo,
       double hi)
{
    std::size_t used = 0;
    double v = 0;
    try {
        v = std::stod(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used != text.size() || text.empty() || !(v >= lo && v <= hi))
        throw std::invalid_argument(flag + " wants a number in [" +
                                    std::to_string(lo) + ", " +
                                    std::to_string(hi) + "], got '" +
                                    text + "'");
    return v;
}

/** Strict full-string unsigned 64-bit parse; throws on anything else. */
std::uint64_t
integer(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    std::uint64_t v = 0;
    try {
        if (!text.empty() && text[0] != '-')
            v = std::stoull(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used == 0 || used != text.size())
        throw std::invalid_argument(flag + " wants an unsigned 64-bit "
                                           "integer, got '" + text + "'");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string f = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(f + " needs a value");
            return argv[++i];
        };
        if (f == "--workload")
            a.workload = value();
        else if (f == "--seed")
            a.seed = integer(f, value());
        else if (f == "--seconds")
            a.seconds = number(f, value(), 0, 3600);
        else if (f == "--trace")
            a.trace = number(f, value(), 0, 1) != 0;
        else if (f == "--subset")
            a.subset = static_cast<std::size_t>(number(f, value(), 1, 1e6));
        else if (f == "--work-dir")
            a.workDir = value();
        else if (f == "--trace-out")
            a.traceOut = value();
        else if (f == "--force-fail")
            a.forceFail = true;
        else if (f == "--setup-only")
            a.setupOnly = true;
        else if (f == "--spawn-ns")
            a.spawnNs = integer(f, value());
        else
            throw std::invalid_argument("unknown argument " + f);
    }
    if (a.workload.empty())
        throw std::invalid_argument("--workload is required");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        args = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "hostbench: " << e.what() << "\n";
        return 2;
    }
    bool setupOnly = args.setupOnly;
    std::uint64_t spawnNs = args.spawnNs;
    Bench bench(std::move(args));
    int status = 0;
    try {
        if (!bench.setup()) {
            status = 2;
        } else if (setupOnly) {
            // steady_clock is CLOCK_MONOTONIC, the parent's clock too.
            auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now().time_since_epoch());
            if (spawnNs > 0)
                std::printf("setup_s %.9f\n",
                            static_cast<double>(
                                static_cast<std::uint64_t>(now.count()) -
                                spawnNs) /
                                1e9);
        } else {
            status = bench.run();
        }
    } catch (const std::exception &e) {
        std::cerr << "hostbench: " << e.what() << "\n";
        status = 2;
    }
    bench.cleanup();
    return status;
}
