/**
 * @file
 * The repo benchmark: one workload per process.
 *
 *   perfbench --workload <kv-update|kv-read|trace-pipeline|crash-sweep>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--work-dir <dir>] [--rev <id>]
 *
 * Every input is generated from --seed. The untraced run (--trace 0)
 * reports the end-to-end metrics; the traced run (--trace 1) records
 * spans around this file's calls into each module (tracer.hh) and
 * reports the per-layer metrics, their self times and the tracing
 * overhead. The last stdout line is one JSON object with the metric
 * values; perfbench/run.py adds units and the metric list from
 * BENCHMARK.json.
 *
 * Host metrics are wall-clock times of the tools themselves; modelled
 * metrics are logical ticks or simulated cycles, deterministic at a
 * fixed seed (see perfbench/README.md for the metric table).
 */

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/optimize.hh"
#include "analysis/pipeline.hh"
#include "core/app.hh"
#include "core/harness.hh"
#include "fuzz/crash_fuzz.hh"
#include "sim/simulator.hh"
#include "trace/trace_io.hh"
#include "workload/keydist.hh"
#include "workload/latency_histogram.hh"

#include "tracer.hh"

using namespace whisper;
using perfbench::nowNs;
using perfbench::Scoped;

namespace
{

// ---------------------------------------------------------------- run

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".";
    std::string rev = "unknown";
};

/**
 * Outcome of one run. attempted/failed count operations, cases and
 * checks; metrics hold values by name (units live in BENCHMARK.json).
 */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics;
    std::vector<std::string> info;

    void
    check(bool ok, const char *fmt, ...)
    {
        attempted++;
        if (ok)
            return;
        failed++;
        char buf[512];
        va_list ap;
        va_start(ap, fmt);
        std::vsnprintf(buf, sizeof(buf), fmt, ap);
        va_end(ap);
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", buf);
    }

    void
    note(const char *fmt, ...)
    {
        char buf[512];
        va_list ap;
        va_start(ap, fmt);
        std::vsnprintf(buf, sizeof(buf), fmt, ap);
        va_end(ap);
        info.emplace_back(buf);
    }
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Nearest-rank quantile (0 for no samples). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return s;
}

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) / 1e9;
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull ^ salt);
    return rng();
}

std::uint64_t
fold(std::uint64_t h, std::uint64_t v)
{
    for (unsigned b = 0; b < 8; b++) {
        h ^= (v >> (b * 8)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** The six access layers, one app each (KV and crash workloads). */
struct LayerApp
{
    const char *app;
    const char *label; //!< per-layer metric prefix
};

const LayerApp kLayerApps[] = {
    {"ycsb", "apps.ycsb"},       {"hashmap", "txlib.nvml"},
    {"memcached", "txlib.mne"},  {"nfs", "pmfs"},
    {"mod-hashmap", "mod"},      {"halo-hashmap", "halo"},
};
constexpr std::uint32_t kLayerCount = 6;

std::string
metricName(std::uint32_t layer, const char *suffix)
{
    return std::string(kLayerApps[layer].label) + "." + suffix;
}

/**
 * Ratio of traced to untraced time per unit of work, as a percentage
 * overhead; 0 when either side has no sample.
 */
double
overheadPct(double traced_ns, double traced_units, double plain_ns,
            double plain_units)
{
    if (traced_units <= 0 || plain_units <= 0 || plain_ns <= 0)
        return 0.0;
    const double per_traced = traced_ns / traced_units;
    const double per_plain = plain_ns / plain_units;
    return 100.0 * (per_traced - per_plain) / per_plain;
}

// ------------------------------------------------- PM primitive costs

/**
 * Götze-style primitive microbenchmark: per-call cost of the
 * instrumented access path, the cost model under every access layer.
 * Traced runs only.
 */
void
measurePmPrimitives(Report &rep)
{
    constexpr std::uint64_t kCalls = 20000;
    constexpr std::uint64_t kLines = 4096;
    core::Runtime rt(8 << 20, 1, false);
    pm::PmContext &ctx = rt.ctx(0);
    std::uint64_t v = 0;
    // ns per call of kCalls calls of @p op, timed inside one span.
    auto perCall = [&](const char *span, auto op) {
        rt.clearTraces();
        const std::int64_t t0 = nowNs();
        {
            Scoped s(span);
            for (std::uint64_t i = 0; i < kCalls; i++)
                op(static_cast<Addr>(4096 + (i % kLines) * 64), i);
        }
        return static_cast<double>(nowNs() - t0) / kCalls;
    };
    rep.metrics["pm.store_ns"] =
        perCall("pm.store", [&](Addr a, std::uint64_t i) {
            v = i;
            ctx.store(a, &v, sizeof(v));
        });
    rep.metrics["pm.load_ns"] =
        perCall("pm.load", [&](Addr a, std::uint64_t) {
            ctx.load(a, &v, sizeof(v));
        });
    rep.metrics["pm.persist_ns"] =
        perCall("pm.persist", [&](Addr a, std::uint64_t i) {
            v = i;
            ctx.store(a, &v, sizeof(v));
            ctx.flush(a, sizeof(v));
            ctx.fence();
        });
}

// ------------------------------------------------------ KV workloads

constexpr unsigned kKvThreads = 4;
constexpr std::uint64_t kKvKeys = 16384;         //!< preloaded, total
constexpr std::uint64_t kKvOpsPerPass = 1000;    //!< per thread
constexpr std::size_t kKvPoolBytes = 64 << 20;
constexpr unsigned kKvSetupReps = 3;
constexpr unsigned kKvTracedPasses = 3; //!< traced passes per thread
/**
 * Updates per thread per app, at most. The Hybrid layer appends every
 * update to its PM log without cleaning, so a run must stay within
 * its pool however fast the host is.
 */
constexpr std::uint64_t kKvMaxPutsPerThread = 100000;
constexpr std::uint64_t kValueBytes = sizeof(std::uint64_t);

struct KvOp
{
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    bool put = false;
};

/** Per-thread result of one app's run. */
struct KvThread
{
    std::uint64_t ops = 0;
    std::uint64_t missing = 0; //!< gets of preloaded keys not found
    // First pass: the modelled (deterministic) quantities.
    Tick ticks = 0;
    workload::LatencyHistogram hist;
    trace::AccessCounters counters;
    std::uint64_t events = 0;
    std::uint64_t puts = 0;
    // Passes 1..2*kKvTracedPasses alternate traced / untraced.
    double tracedNs = 0, plainNs = 0;
    std::vector<double> passNs; //!< untraced passes after the first
    std::uint64_t tracedPasses = 0, plainPasses = 0;
};

/** Fingerprint of a first pass (the determinism self-check). */
std::uint64_t
kvDigest(const std::vector<KvThread> &threads)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const KvThread &t : threads) {
        h = fold(h, t.ticks);
        h = fold(h, t.hist.digest());
        h = fold(h, t.counters.pmStores);
        h = fold(h, t.counters.pmNtStores);
        h = fold(h, t.counters.pmLoads);
        h = fold(h, t.counters.pmFlushes);
        h = fold(h, t.counters.fences);
        h = fold(h, t.counters.pmStoreBytes);
        h = fold(h, t.counters.pmNtStoreBytes);
        h = fold(h, t.events);
    }
    return h;
}

/**
 * Issue @p streams on every thread in passes until @p deadline (or
 * @p max_passes, or the update cap), closed loop: a thread issues its
 * next op only when the previous one returned.
 */
std::vector<KvThread>
runKvPasses(core::Runtime &rt, core::WhisperApp &app,
            const std::vector<std::vector<KvOp>> &streams,
            std::uint32_t tag, std::int64_t deadline,
            unsigned max_passes, bool traced)
{
    std::vector<KvThread> res(kKvThreads);
    Scoped outer("core.runThreads", tag);
    const std::uint64_t parent = outer.id();
    rt.runThreads(kKvThreads, [&](pm::PmContext &ctx, ThreadId tid) {
        KvThread &r = res[tid];
        trace::TraceBuffer *tb = ctx.traceBuffer();
        std::uint64_t puts = 0, pass_puts = 0;
        for (const KvOp &op : streams[tid])
            pass_puts += op.put ? 1 : 0;
        for (unsigned pass = 0;; pass++) {
            const bool window = pass >= 1 && pass <= 2 * kKvTracedPasses;
            const bool spans = traced && window && pass % 2 == 1;
            // Untraced passes are one span for the whole batch of app
            // calls; traced passes time each call.
            Scoped pass_span(spans ? "bench.pass" : "apps.workloadOps", tag,
                             parent);
            const std::uint64_t op_parent = pass_span.id();
            const std::int64_t p0 = nowNs();
            const Tick start = ctx.localTicks();
            for (const KvOp &op : streams[tid]) {
                const Tick t0 = ctx.localTicks();
                if (op.put) {
                    Scoped s("apps.workloadPut", tag, op_parent, spans);
                    app.workloadPut(ctx, tid, op.key, op.value);
                } else {
                    Scoped s("apps.workloadGet", tag, op_parent, spans);
                    if (!app.workloadGet(ctx, tid, op.key))
                        r.missing++;
                }
                if (pass == 0) {
                    r.hist.record(ctx.localTicks() - t0);
                    r.puts += op.put ? 1 : 0;
                }
            }
            const double pass_ns = static_cast<double>(nowNs() - p0);
            if (pass == 0) {
                r.ticks = ctx.localTicks() - start;
                if (tb) {
                    r.counters = tb->counters();
                    r.events = tb->size();
                }
            }
            if (pass >= 1 && !spans)
                r.passNs.push_back(pass_ns);
            if (window) {
                (spans ? r.tracedNs : r.plainNs) += pass_ns;
                (spans ? r.tracedPasses : r.plainPasses)++;
            }
            r.ops += streams[tid].size();
            // The trace is not analysed here; dropping it keeps memory
            // bounded by one pass.
            if (tb)
                tb->clear();
            puts += pass_puts;
            // A timed run makes at least two passes, so the rate has an
            // untraced pass after the first to go by.
            const bool done = max_passes ? pass + 1 >= max_passes
                                         : pass >= 1 && nowNs() >= deadline;
            if (done || puts + pass_puts > kKvMaxPutsPerThread)
                break;
        }
        app.workloadThreadDone(ctx, tid);
    });
    return res;
}

struct KvLayerResult
{
    double setupS = 0;
    double opsPerS = 0;
    std::uint64_t ops = 0;
    std::vector<KvThread> first; //!< first-pass tallies
};

void
runKv(const Options &opt, Report &rep, bool mix_a)
{
    const double read_frac = mix_a ? 0.50 : 0.95;
    const workload::KeyDist dist =
        mix_a ? workload::KeyDist::Zipfian : workload::KeyDist::Uniform;
    core::WorkloadKeymap map;
    map.keys = kKvKeys;
    map.threads = kKvThreads;
    core::AppConfig cfg;
    cfg.threads = kKvThreads;
    cfg.opsPerThread = kKvOpsPerPass;
    cfg.poolBytes = kKvPoolBytes;
    cfg.seed = mixSeed(opt.seed, 0xa99);

    if (opt.trace)
        measurePmPrimitives(rep);

    const double slice_s = opt.seconds / kLayerCount;
    std::vector<KvLayerResult> layers(kLayerCount);
    std::vector<double> runtime_ms;
    std::vector<std::string> nondeterministic;
    double plain_ns = 0, traced_ns = 0, plain_n = 0, traced_n = 0;

    for (std::uint32_t li = 0; li < kLayerCount; li++) {
        const char *name = kLayerApps[li].app;
        // Op streams: generated per thread from the seed, outside any
        // timed region. Only preloaded keys are drawn (no inserts), so
        // every get must find its key.
        std::vector<std::vector<KvOp>> streams(kKvThreads);
        Rng master(mixSeed(opt.seed, fold(0x6b76, li)));
        for (unsigned t = 0; t < kKvThreads; t++) {
            Rng rng = master.split();
            workload::KeyChooser chooser(dist, map,
                                         static_cast<ThreadId>(t), 0.99);
            streams[t].resize(kKvOpsPerPass);
            for (KvOp &op : streams[t]) {
                op.put = rng.nextDouble() >= read_frac;
                op.key = chooser.next(rng);
                op.value = rng();
            }
        }

        KvLayerResult &L = layers[li];
        std::vector<double> setup_s;
        std::uint64_t digest0 = 0;
        bool unstable = false;
        for (unsigned r = 0; r < kKvSetupReps; r++) {
            const bool last = r + 1 == kKvSetupReps;
            std::unique_ptr<core::Runtime> rt;
            std::unique_ptr<core::WhisperApp> app;
            const std::int64_t t0 = nowNs();
            {
                Scoped s("core.Runtime", li);
                rt = std::make_unique<core::Runtime>(kKvPoolBytes,
                                                     kKvThreads, false);
            }
            const std::int64_t t1 = nowNs();
            {
                Scoped s("core.createApp", li);
                app = core::createApp(name, cfg);
            }
            {
                Scoped s("apps.workloadSetup", li);
                app->workloadSetup(*rt, map);
            }
            setup_s.push_back(secondsSince(t0));
            runtime_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
            rt->clearTraces();

            const std::int64_t deadline =
                last ? nowNs() + static_cast<std::int64_t>(slice_s * 1e9)
                     : 0;
            std::vector<KvThread> res =
                runKvPasses(*rt, *app, streams, li, deadline,
                            last ? 0 : 1, opt.trace && last);

            std::uint64_t ops = 0, missing = 0;
            for (const KvThread &t : res) {
                ops += t.ops;
                missing += t.missing;
            }
            rep.attempted += ops;
            rep.failed += missing;
            if (missing) {
                std::fprintf(stderr,
                             "perfbench: CHECK FAILED: %s: %" PRIu64
                             " gets of preloaded keys not found\n",
                             name, missing);
            }
            core::VerifyReport check;
            {
                Scoped s("apps.workloadCheck", li);
                check = app->workloadCheck(*rt);
            }
            rep.check(check.ok(), "%s: workloadCheck: %s", name,
                      check.brief().c_str());
            const std::uint64_t digest = kvDigest(res);
            if (r == 0)
                digest0 = digest;
            else if (digest != digest0)
                unstable = true;
            if (last) {
                L.ops = ops;
                // Closed-loop rate from each thread's median pass: a
                // stall of a shared host hits a few passes, not the
                // median.
                L.opsPerS = 0;
                for (unsigned t = 0; t < kKvThreads; t++) {
                    L.opsPerS += static_cast<double>(streams[t].size()) *
                                 1e9 / median(res[t].passNs);
                }
                L.first = std::move(res);
                for (const KvThread &t : L.first) {
                    plain_ns += t.plainNs;
                    traced_ns += t.tracedNs;
                    plain_n += static_cast<double>(t.plainPasses);
                    traced_n += static_cast<double>(t.tracedPasses);
                }
            }
        }
        L.setupS = median(setup_s);
        // Determinism self-check, reported rather than failed: the
        // first pass of every fresh setup should repeat bit for bit
        // (docs/WORKLOADS.md), but some layers' tick costs depend on
        // cross-thread interleaving.
        if (unstable) {
            nondeterministic.push_back(name);
            std::fprintf(stderr,
                         "perfbench: NOT DETERMINISTIC: %s first pass "
                         "differs across %u fresh setups\n",
                         name, kKvSetupReps);
        }
    }

    // Aggregates over the six layers.
    double setup_total = 0;
    std::uint64_t first_ops = 0, first_puts = 0, first_events = 0,
                  pm_bytes = 0;
    Tick makespan_total = 0;
    double log_rate = 0;
    workload::LatencyHistogram all;
    for (std::uint32_t li = 0; li < kLayerCount; li++) {
        const KvLayerResult &L = layers[li];
        setup_total += L.setupS;
        Tick makespan = 0;
        std::uint64_t ops = 0, flushes = 0, fences = 0, bytes = 0;
        for (const KvThread &t : L.first) {
            makespan = std::max(makespan, t.ticks);
            ops += t.hist.count();
            flushes += t.counters.pmFlushes;
            fences += t.counters.fences;
            bytes += t.counters.pmStoreBytes + t.counters.pmNtStoreBytes;
            first_puts += t.puts;
            first_events += t.events;
            all.merge(t.hist);
        }
        makespan_total += makespan;
        first_ops += ops;
        log_rate += std::log(L.opsPerS);
        rep.note("%-12s %10.0f ops/s host, %.3f s set-up, %" PRIu64
                 " ops", kLayerApps[li].app, L.opsPerS, L.setupS, L.ops);
        pm_bytes += bytes;
        if (opt.trace) {
            const double n = static_cast<double>(ops);
            auto us = [&](const char *span) {
                std::vector<double> d =
                    perfbench::tracer().durationsMs(span, li);
                for (double &x : d)
                    x *= 1e3;
                return d;
            };
            const std::vector<double> gets = us("apps.workloadGet");
            const std::vector<double> puts = us("apps.workloadPut");
            rep.metrics[metricName(li, "get_us_p50")] = quantile(gets, 0.5);
            rep.metrics[metricName(li, "get_us_p99")] =
                quantile(gets, 0.99);
            rep.metrics[metricName(li, "put_us_p50")] = quantile(puts, 0.5);
            rep.metrics[metricName(li, "put_us_p99")] =
                quantile(puts, 0.99);
            rep.metrics[metricName(li, "ops_per_s")] = L.opsPerS;
            rep.metrics[metricName(li, "setup_s")] = L.setupS;
            rep.metrics[metricName(li, "flushes_per_op")] =
                static_cast<double>(flushes) / n;
            rep.metrics[metricName(li, "fences_per_op")] =
                static_cast<double>(fences) / n;
            rep.metrics[metricName(li, "pm_bytes_per_op")] =
                static_cast<double>(bytes) / n;
        }
    }

    const double sim_ops_per_s = static_cast<double>(first_ops) * 1e9 /
                                 static_cast<double>(makespan_total);
    const double sim_p99 = static_cast<double>(all.quantile(0.99));
    const double write_amp =
        first_puts ? static_cast<double>(pm_bytes) /
                         static_cast<double>(first_puts * kValueBytes)
                   : 0.0;
    rep.note("modelled: sim_ops_per_s %.6g ops/s, sim_op_p99_ns %.0f, "
             "write_amp %.6g (first pass, %" PRIu64 " ops)",
             sim_ops_per_s, sim_p99, write_amp, first_ops);
    std::string names;
    for (const std::string &n : nondeterministic)
        names += " " + n;
    rep.note("determinism: %zu of %u layers' first pass differs across "
             "setups%s",
             nondeterministic.size(), kLayerCount, names.c_str());
    // Geometric mean: a given slowdown of any one layer moves it by
    // the same share.
    const double kv_ops_per_s = std::exp(log_rate / kLayerCount);
    rep.note("host: kv_ops_per_s %.6g (geometric mean over layers)",
             kv_ops_per_s);
    if (opt.trace) {
        rep.metrics["sim_ops_per_s"] = sim_ops_per_s;
        rep.metrics["sim_op_p99_ns"] = sim_p99;
        rep.metrics["write_amp"] = write_amp;
        rep.metrics["trace.events_per_op"] =
            static_cast<double>(first_events) /
            static_cast<double>(first_ops);
        rep.metrics["core.runtime_new_ms"] = median(runtime_ms);
        rep.metrics["kv.nondeterministic_layers"] =
            static_cast<double>(nondeterministic.size());
        rep.metrics["trace_overhead_pct"] =
            overheadPct(traced_ns, traced_n, plain_ns, plain_n);
    } else {
        rep.metrics["setup_s"] = setup_total;
        rep.metrics["throughput_per_s"] = kv_ops_per_s;
    }
}

// ------------------------------------------------- trace pipeline

constexpr unsigned kPipeThreads = 4;
constexpr std::uint64_t kPipeOpsPerThread = 50;
constexpr std::size_t kPipePoolBytes = 192 << 20;
const char *const kPipeApps[] = {"echo",    "ycsb",    "redis",
                                 "ctree",   "hashmap", "vacation"};
constexpr std::uint32_t kPipeAppCount = 6;

const sim::ModelKind kModels[] = {
    sim::ModelKind::X86Nvm,  sim::ModelKind::X86Pwq,
    sim::ModelKind::HopsNvm, sim::ModelKind::HopsPwq,
    sim::ModelKind::Dpo,     sim::ModelKind::Ideal,
};
const char *const kModelKeys[] = {"x86_nvm",  "x86_pwq", "hops_nvm",
                                  "hops_pwq", "dpo",     "ideal"};
const char *const kModelSpans[] = {
    "sim.run.x86_nvm",  "sim.run.x86_pwq", "sim.run.hops_nvm",
    "sim.run.hops_pwq", "sim.run.dpo",     "sim.run.ideal"};
constexpr std::size_t kModelCount = 6;

bool
sameHistogram(const Histogram &a, const Histogram &b)
{
    return a.values() == b.values();
}

/** Bit-identity of two analyses (every field the pipeline fills). */
bool
sameAnalysis(const analysis::AnalysisResult &a,
             const analysis::AnalysisResult &b)
{
    const auto &ea = a.epochs, &eb = b.epochs;
    return a.threadCount == b.threadCount &&
           a.totalEvents == b.totalEvents &&
           a.firstTick == b.firstTick && a.lastTick == b.lastTick &&
           ea.totalEpochs == eb.totalEpochs &&
           ea.totalTransactions == eb.totalTransactions &&
           ea.epochsPerSecond == eb.epochsPerSecond &&
           sameHistogram(ea.epochSizes, eb.epochSizes) &&
           sameHistogram(ea.epochsPerTx, eb.epochsPerTx) &&
           sameHistogram(ea.singletonBytes, eb.singletonBytes) &&
           ea.singletonFraction == eb.singletonFraction &&
           ea.singletonUnder10B == eb.singletonUnder10B &&
           ea.durabilityFenceFraction == eb.durabilityFenceFraction &&
           a.dependencies.totalEpochs == b.dependencies.totalEpochs &&
           a.dependencies.selfDependent == b.dependencies.selfDependent &&
           a.dependencies.crossDependent ==
               b.dependencies.crossDependent &&
           a.mix.pmAccesses == b.mix.pmAccesses &&
           a.mix.dramAccesses == b.mix.dramAccesses &&
           a.nti.cacheableStores == b.nti.cacheableStores &&
           a.nti.ntStores == b.nti.ntStores &&
           a.nti.cacheableBytes == b.nti.cacheableBytes &&
           a.nti.ntBytes == b.nti.ntBytes &&
           a.amplification.userBytes == b.amplification.userBytes &&
           a.amplification.logBytes == b.amplification.logBytes &&
           a.amplification.allocBytes == b.amplification.allocBytes &&
           a.amplification.txMetaBytes == b.amplification.txMetaBytes &&
           a.amplification.fsMetaBytes == b.amplification.fsMetaBytes;
}

bool
sameCache(const sim::CacheStats &a, const sim::CacheStats &b)
{
    return a.hits == b.hits && a.misses == b.misses &&
           a.evictions == b.evictions;
}

bool
sameSim(const sim::SimResult &a, const sim::SimResult &b)
{
    const auto &p = a.persist, &q = b.persist;
    const auto &d = a.device, &e = b.device;
    return a.model == b.model && a.cycles == b.cycles &&
           a.coreCycles == b.coreCycles &&
           a.pmAccesses == b.pmAccesses &&
           a.dramAccesses == b.dramAccesses &&
           a.coherenceTransfers == b.coherenceTransfers &&
           sameCache(a.l1Stats, b.l1Stats) &&
           sameCache(a.llcStats, b.llcStats) &&
           p.fenceStalls == q.fenceStalls &&
           p.pbFullStalls == q.pbFullStalls &&
           p.missStalls == q.missStalls &&
           p.flushesIssued == q.flushesIssued &&
           p.flushesElided == q.flushesElided &&
           p.epochsDrained == q.epochsDrained &&
           p.linesDrained == q.linesDrained &&
           p.epochsCoalesced == q.epochsCoalesced &&
           p.crossDepWaits == q.crossDepWaits && d.reads == e.reads &&
           d.writes == e.writes && d.wcHits == e.wcHits &&
           d.wcEvicts == e.wcEvicts && d.readBufHits == e.readBufHits &&
           d.queueWaitCycles == e.queueWaitCycles;
}

/** Per-iteration tallies of the pipeline. */
struct PipeIter
{
    double setupS = 0;
    double chainS = 0;
    std::uint64_t events = 0;
    std::vector<std::vector<sim::SimResult>> sims; //!< [app][model]
};

PipeIter
pipelineIteration(const Options &opt, Report &rep, bool checks,
                  double &trace_mem_mb, std::vector<double> &file_mb)
{
    PipeIter it;
    core::AppConfig cfg;
    cfg.threads = kPipeThreads;
    cfg.opsPerThread = kPipeOpsPerThread;
    cfg.poolBytes = kPipePoolBytes;
    cfg.seed = mixSeed(opt.seed, 0x919e);
    cfg.recordVolatile = true;
    const std::string path = opt.workDir + "/pipeline-" +
                             std::to_string(::getpid()) + ".trace";
    const sim::SimParams params;
    analysis::AnalysisOptions aopt;
    aopt.jobs = kPipeThreads;
    analysis::OptimizeOptions oopt;
    oopt.jobs = kPipeThreads;

    for (std::uint32_t ai = 0; ai < kPipeAppCount; ai++) {
        const char *name = kPipeApps[ai];
        Scoped app_span("bench.pipelineApp", ai);
        std::unique_ptr<core::Runtime> rt;
        std::unique_ptr<core::WhisperApp> app;
        const std::int64_t s0 = nowNs();
        {
            Scoped s("core.Runtime", ai);
            rt = std::make_unique<core::Runtime>(
                cfg.poolBytes, cfg.threads, cfg.recordVolatile);
        }
        {
            Scoped s("core.createApp", ai);
            app = core::createApp(name, cfg);
        }
        {
            Scoped s("apps.setup", ai);
            app->setup(*rt);
        }
        rt->clearTraces();
        it.setupS += secondsSince(s0);

        // The chain: record -> write -> analyse -> optimise -> read ->
        // simulate (six models). Checks and probes run outside it.
        double chain_ns = 0;
        std::int64_t c0 = nowNs();
        {
            Scoped s("core.runThreads", ai);
            const std::uint64_t parent = s.id();
            rt->runThreads(cfg.threads,
                           [&](pm::PmContext &ctx, ThreadId tid) {
                               Scoped t("apps.run", ai, parent);
                               app->run(*rt, ctx, tid);
                           });
        }
        chain_ns += static_cast<double>(nowNs() - c0);
        core::VerifyReport verdict;
        {
            Scoped s("apps.verify", ai);
            verdict = app->verify(*rt);
        }
        rep.check(verdict.ok(), "%s: recording failed verify: %s", name,
                  verdict.brief().c_str());
        const std::uint64_t events = rt->traces().totalEvents();
        it.events += events;
        trace_mem_mb = std::max(
            trace_mem_mb, static_cast<double>(events) *
                              static_cast<double>(sizeof(trace::TraceEvent)) /
                              (1 << 20));

        c0 = nowNs();
        bool ok = false;
        {
            Scoped s("trace.writeTraceFile", ai);
            ok = trace::writeTraceFile(path, rt->traces());
        }
        rep.check(ok, "%s: writeTraceFile failed", name);
        analysis::AnalysisResult streamed;
        {
            Scoped s("analysis.analyzeTraceFile", ai);
            ok = analysis::analyzeTraceFile(path, streamed, aopt);
        }
        rep.check(ok, "%s: analyzeTraceFile failed", name);
        analysis::OptimizeResult optimized;
        {
            Scoped s("analysis.optimizeTraceFile", ai);
            ok = analysis::optimizeTraceFile(path, optimized, oopt);
        }
        rep.check(ok, "%s: optimizeTraceFile failed", name);
        trace::TraceSet reread(true);
        {
            Scoped s("trace.readTraceFile", ai);
            ok = trace::readTraceFile(path, reread);
        }
        rep.check(ok && reread.totalEvents() == events,
                  "%s: readTraceFile failed or lost events", name);
        std::vector<sim::SimResult> sims;
        for (std::size_t m = 0; m < kModelCount; m++) {
            Scoped s(kModelSpans[m], ai);
            sims.push_back(sim::Simulator(params, kModels[m]).run(reread));
        }
        chain_ns += static_cast<double>(nowNs() - c0);
        it.chainS += chain_ns / 1e9;
        std::error_code ec;
        file_mb.push_back(static_cast<double>(
                              std::filesystem::file_size(path, ec)) /
                          (1 << 20));

        if (perfbench::tracer().on()) {
            Scoped s("trace.merged", ai);
            const std::vector<trace::MergedEvent> merged =
                reread.merged();
            rep.check(merged.size() == events, "%s: merged() size",
                      name);
        }
        if (checks) {
            analysis::AnalysisOptions one;
            one.jobs = 1;
            analysis::AnalysisResult seq;
            {
                Scoped s("analysis.analyzeTraceFile.jobs1", ai);
                ok = analysis::analyzeTraceFile(path, seq, one);
            }
            rep.check(ok && sameAnalysis(seq, streamed),
                      "%s: analysis differs between jobs 1 and jobs %u",
                      name, aopt.jobs);
            analysis::AnalysisResult mem;
            {
                Scoped s("analysis.analyzeTraces", ai);
                mem = analysis::analyzeTraces(rt->traces(), aopt);
            }
            rep.check(sameAnalysis(mem, streamed),
                      "%s: in-memory analysis differs from streamed",
                      name);
            for (std::size_t m = 0; m < kModelCount; m++) {
                Scoped s("sim.run.inMemory", ai);
                const sim::SimResult direct =
                    sim::Simulator(params, kModels[m]).run(rt->traces());
                rep.check(sameSim(direct, sims[m]),
                          "%s: %s differs on the re-read trace", name,
                          kModelKeys[m]);
            }
        }
        it.sims.push_back(std::move(sims));
        std::filesystem::remove(path, ec);
    }
    return it;
}

void
runPipeline(const Options &opt, Report &rep)
{
    if (opt.trace)
        measurePmPrimitives(rep);
    perfbench::Tracer &tr = perfbench::tracer();
    const bool tracing = tr.on();
    const std::int64_t t0 = nowNs();
    std::vector<PipeIter> iters;
    std::vector<bool> traced;
    double trace_mem_mb = 0;
    std::vector<double> file_mb;
    // Whole iterations only, so every run measures the same app mix.
    // Traced runs alternate traced and untraced iterations, starting
    // traced, for the overhead figure.
    while (iters.empty() || secondsSince(t0) < opt.seconds ||
           (tracing && iters.size() < 2)) {
        const bool on = tracing && iters.size() % 2 == 0;
        std::vector<double> mb;
        {
            Scoped unit(on ? "bench.iteration" : "untraced.iteration");
            tr.setOn(on);
            iters.push_back(pipelineIteration(opt, rep, iters.empty(),
                                              trace_mem_mb, mb));
            tr.setOn(tracing);
        }
        traced.push_back(on);
        if (on)
            file_mb.insert(file_mb.end(), mb.begin(), mb.end());
    }
    tr.setOn(tracing);

    double events = 0, chain = 0, tr_ns = 0, tr_n = 0, pl_ns = 0,
           pl_n = 0;
    std::vector<double> setups, rates;
    for (std::size_t i = 0; i < iters.size(); i++) {
        setups.push_back(iters[i].setupS);
        if (tracing) {
            (traced[i] ? tr_ns : pl_ns) += iters[i].chainS * 1e9 /
                                           static_cast<double>(iters[i].events);
            (traced[i] ? tr_n : pl_n) += 1;
        }
        if (tracing && traced[i])
            continue;
        events += static_cast<double>(iters[i].events);
        chain += iters[i].chainS;
        rates.push_back(static_cast<double>(iters[i].events) /
                        iters[i].chainS);
    }

    // Modelled results of the first iteration.
    const PipeIter &first = iters.front();
    double x86 = 0, hops = 0, norm_hops = 0, norm_ideal = 0;
    std::uint64_t l1_hits = 0, l1_total = 0, x86_stalls = 0,
                  hops_stalls = 0;
    for (const auto &s : first.sims) {
        const double base = static_cast<double>(s[0].cycles);
        x86 += base;
        hops += static_cast<double>(s[2].cycles);
        norm_hops += static_cast<double>(s[2].cycles) / base;
        norm_ideal += static_cast<double>(s[5].cycles) / base;
        l1_hits += s[0].l1Stats.hits;
        l1_total += s[0].l1Stats.hits + s[0].l1Stats.misses;
        x86_stalls += s[0].persist.fenceStalls;
        hops_stalls += s[2].persist.fenceStalls;
    }
    const double napps = static_cast<double>(first.sims.size());
    const double hops_gain = 100.0 * (1.0 - norm_hops / napps);
    const double ideal_gain = 100.0 * (1.0 - norm_ideal / napps);
    rep.note("modelled: sim_x86_nvm_mcycles %.6f, sim_hops_nvm_mcycles "
             "%.6f (first iteration, %" PRIu64 " events)",
             x86 / 1e6, hops / 1e6, first.events);
    rep.note("figure 10 (report only): HOPS(NVM) vs x86-64(NVM) "
             "%.1f%% (paper 24.3%%, error %+.1f pts); ideal vs "
             "x86-64(NVM) %.1f%% (paper 40.7%%, error %+.1f pts)",
             hops_gain, hops_gain - 24.3, ideal_gain, ideal_gain - 40.7);
    rep.note("host: pipeline_events_per_s %.6g over %zu iteration(s)",
             events / chain, iters.size());

    if (!tracing) {
        rep.metrics["setup_s"] = median(setups);
        rep.metrics["throughput_per_s"] = median(rates);
        return;
    }
    rep.metrics["sim_x86_nvm_mcycles"] = x86 / 1e6;
    rep.metrics["sim_hops_nvm_mcycles"] = hops / 1e6;
    rep.metrics["trace_overhead_pct"] = overheadPct(tr_ns, tr_n, pl_ns,
                                                    pl_n);
    // Span-derived rates over the traced iterations.
    double traced_events = 0;
    for (std::size_t i = 0; i < iters.size(); i++) {
        if (traced[i])
            traced_events += static_cast<double>(iters[i].events);
    }
    auto rate = [&](const char *span, double amount) {
        const double s = sum(tr.durationsMs(span)) / 1e3;
        return s > 0 ? amount / s : 0.0;
    };
    rep.metrics["core.record_events_per_s"] =
        rate("core.runThreads", traced_events);
    rep.metrics["trace.write_mb_per_s"] =
        rate("trace.writeTraceFile", sum(file_mb));
    rep.metrics["trace.read_mb_per_s"] =
        rate("trace.readTraceFile", sum(file_mb));
    rep.metrics["trace.merge_ms"] = median(tr.durationsMs("trace.merged"));
    rep.metrics["trace.mem_mb"] = trace_mem_mb;
    rep.metrics["analysis.events_per_s"] =
        rate("analysis.analyzeTraceFile", traced_events);
    rep.metrics["analysis.events_per_s_jobs1"] =
        rate("analysis.analyzeTraceFile.jobs1",
             static_cast<double>(first.events));
    rep.metrics["analysis.optimize_ms"] =
        median(tr.durationsMs("analysis.optimizeTraceFile"));
    for (std::size_t m = 0; m < kModelCount; m++) {
        rep.metrics[std::string("sim.") + kModelKeys[m] +
                    ".events_per_s"] = rate(kModelSpans[m], traced_events);
    }
    rep.metrics["sim.l1_hit_rate"] =
        l1_total ? static_cast<double>(l1_hits) /
                       static_cast<double>(l1_total)
                 : 0.0;
    rep.metrics["sim.x86_nvm.fence_stalls"] =
        static_cast<double>(x86_stalls);
    rep.metrics["sim.hops_nvm.fence_stalls"] =
        static_cast<double>(hops_stalls);
    rep.metrics["core.runtime_new_ms"] =
        median(tr.durationsMs("core.Runtime"));
}

// ----------------------------------------------------- crash sweep

constexpr unsigned kCrashSetupReps = 3;
/**
 * Crash cases mostly fault in and zero fresh pool memory, whose speed
 * drifts by a fifth over minutes on a shared host. Their end-to-end
 * rate is therefore reported for a host where referenceSeconds()
 * takes this long: each case's time is scaled by this constant over
 * the reference time measured right after it.
 */
constexpr double kReferenceNominalS = 0.017;
constexpr unsigned kCrashDigestCases = 2; //!< cases always run per app
const char *const kLincheckApps[] = {"mod-hashmap", "halo-hashmap"};

/**
 * Host-speed reference: fault in and zero fresh memory, the same kind
 * of work as building a pool image. It uses no library code, so no
 * change to the library can move it. On a shared host its speed
 * drifts by a fifth over minutes, and crash cases drift with it.
 */
double
referenceSeconds()
{
    constexpr std::size_t kBytes = 32 << 20;
    const std::int64_t t0 = nowNs();
    void *p = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
        std::perror("perfbench: reference mmap");
        std::exit(4);
    }
    auto *bytes = static_cast<volatile std::uint8_t *>(p);
    for (std::size_t i = 0; i < kBytes; i += 4096)
        bytes[i] = 1;
    ::munmap(p, kBytes);
    return secondsSince(t0);
}

/** Accumulates case outcomes of one sweep part. */
struct CaseTally
{
    std::uint64_t cases = 0;
    std::uint64_t degraded = 0;
    std::uint64_t keys = 0;
    std::uint64_t budget = 0;
    std::uint64_t digest = 0x77157e5ull; //!< first kCrashDigestCases
    std::vector<std::vector<double>> caseS; //!< host seconds, per app
    /** caseS scaled to a host where the reference takes its nominal. */
    std::vector<std::vector<double>> normS;
};

/**
 * Cases per second: geometric mean over @p parts' apps of one over
 * the app's median case time (raw or @p normalized), so a host stall
 * during a few cases does not move it and a slowdown of any one app
 * moves it by the same share.
 */
double
caseRate(std::initializer_list<const CaseTally *> parts, bool normalized)
{
    double log_sum = 0;
    unsigned n = 0;
    for (const CaseTally *t : parts) {
        for (const std::vector<double> &v :
             normalized ? t->normS : t->caseS) {
            log_sum -= std::log(median(v));
            n++;
        }
    }
    return n ? std::exp(log_sum / n) : 0.0;
}

void
account(Report &rep, CaseTally &tally, const fuzz::FuzzCase &c,
        const fuzz::CaseOutcome &out, std::uint64_t id)
{
    tally.cases++;
    tally.degraded += out.degraded ? 1 : 0;
    if (out.lincheckRan) {
        tally.keys += out.lincheckKeys;
        tally.budget += out.lincheckBudget ? 1 : 0;
        rep.check(out.lincheckOk || out.ok,
                  "%s case %" PRIu64 ": lincheck violation",
                  c.app.c_str(), c.caseId);
    }
    // Degraded cases (named media loss) count as ok.
    rep.check(out.ok, "%s case %" PRIu64 ": %s", c.app.c_str(), c.caseId,
              out.why.c_str());
    if (id < kCrashDigestCases)
        tally.digest = fold(tally.digest, out.digest);
}

/**
 * Each app in turn runs cases 0, 1, 2, ... for its share of
 * @p seconds, at least kCrashDigestCases of them, so the digest covers
 * the same cases in every run. One app's cases run back to back: the
 * allocator state a case starts from then depends on its own app only.
 */
void
crashPart(Report &rep, const std::vector<std::string> &apps,
          const std::vector<std::uint64_t> &totals,
          const fuzz::FuzzConfig &cfg, const char *span, double seconds,
          CaseTally &tally, bool tracing, double &tr_ns, double &tr_n,
          double &pl_ns, double &pl_n)
{
    perfbench::Tracer &tr = perfbench::tracer();
    tally.caseS.resize(apps.size());
    tally.normS.resize(apps.size());
    const double slice = seconds / static_cast<double>(apps.size());
    for (std::uint32_t ai = 0; ai < apps.size(); ai++) {
        const std::int64_t t0 = nowNs();
        for (std::uint64_t id = 0;
             id < kCrashDigestCases || secondsSince(t0) < slice; id++) {
            // Traced runs alternate traced and untraced cases.
            const bool on = tracing && id % 2 == 0;
            Scoped unit(on ? "bench.case" : "untraced.case", ai);
            tr.setOn(on);
            const fuzz::FuzzCase c =
                fuzz::deriveCase(apps[ai], id, totals[ai], cfg);
            fuzz::CaseOutcome out;
            const std::int64_t c0 = nowNs();
            {
                Scoped s(span, ai);
                out = fuzz::runCase(c, cfg);
            }
            const double case_s = secondsSince(c0);
            tr.setOn(tracing);
            tally.caseS[ai].push_back(case_s);
            (on ? tr_ns : pl_ns) += case_s * 1e9;
            (on ? tr_n : pl_n) += 1;
            account(rep, tally, c, out, id);
            tally.normS[ai].push_back(case_s * kReferenceNominalS /
                                      referenceSeconds());
        }
    }
}

/**
 * Crash-and-recover probes at the crash workload's pool size (traced
 * runs only): Runtime construction; a crash cut mid-run, resolved
 * over its dirty lines; and crashAndVerify after runApp, per layer.
 */
void
crashProbes(const Options &opt, Report &rep, const fuzz::FuzzConfig &fc,
            const std::vector<std::uint64_t> &totals)
{
    perfbench::Tracer &tr = perfbench::tracer();
    core::AppConfig cfg;
    cfg.threads = 1;
    cfg.opsPerThread = fc.opsPerThread;
    cfg.poolBytes = fc.poolBytes;
    cfg.seed = fc.appSeed;
    std::vector<double> dirty;
    for (std::uint32_t li = 0; li < kLayerCount; li++) {
        const char *name = kLayerApps[li].app;
        {
            std::unique_ptr<core::Runtime> rt;
            {
                Scoped s("core.Runtime", li);
                rt = std::make_unique<core::Runtime>(fc.poolBytes, 1,
                                                     false);
            }
            std::unique_ptr<core::WhisperApp> app;
            {
                Scoped s("core.createApp", li);
                app = core::createApp(name, cfg);
            }
            {
                Scoped s("apps.setup", li);
                app->setup(*rt);
            }
            rt->installCrashPlan();
            rt->armCrashPoint(totals[li] / 2);
            {
                Scoped s("core.runThreads", li);
                rt->runThreads(1, [&](pm::PmContext &ctx, ThreadId tid) {
                    try {
                        Scoped run("apps.run", li);
                        app->run(*rt, ctx, tid);
                    } catch (const pm::CrashPointReached &) {
                    }
                });
            }
            rep.check(rt->crashPointFired(), "%s: probe crash not reached",
                      name);
            pm::PmPool &pool = rt->pool();
            dirty.push_back(static_cast<double>(pool.dirtyLineCount()));
            Rng rng(mixSeed(opt.seed, li));
            const std::vector<LineAddr> survivors =
                pool.pickSurvivors(rng, 0.5);
            Scoped s("pm.crashWithSurvivors", li);
            rt->crashWithSurvivors(survivors);
        }
        core::RunResult run;
        {
            Scoped s("core.runApp", li);
            run = core::runApp(name, cfg);
        }
        core::CrashOptions co;
        co.seed = mixSeed(opt.seed, 0xc0 + li);
        core::VerifyReport verdict;
        {
            Scoped s("core.crashAndVerify", li);
            verdict = core::crashAndVerify(run, co);
        }
        rep.check(verdict.ok() || verdict.degraded(),
                  "%s: crashAndVerify: %s", name,
                  verdict.brief().c_str());
        rep.metrics[metricName(li, "recover_ms")] =
            median(tr.durationsMs("core.crashAndVerify", li));
    }
    rep.metrics["core.runtime_new_ms"] =
        median(tr.durationsMs("core.Runtime"));
    rep.metrics["pm.crash_ms"] =
        median(tr.durationsMs("pm.crashWithSurvivors"));
    rep.metrics["pm.dirty_lines_at_crash"] = median(dirty);
}

void
runCrash(const Options &opt, Report &rep)
{
    fuzz::FuzzConfig fc;
    fc.faults = true;
    fc.appSeed = mixSeed(opt.seed, 0xf5);
    fc.sweepSeed = mixSeed(opt.seed, 0x5eed);
    fuzz::FuzzConfig lc;
    lc.lincheck = true;
    lc.threads = 3;
    lc.appSeed = fc.appSeed;
    lc.sweepSeed = mixSeed(opt.seed, 0x11c);

    std::vector<std::string> apps, lapps;
    for (const LayerApp &a : kLayerApps)
        apps.push_back(a.app);
    for (const char *a : kLincheckApps)
        lapps.push_back(a);

    perfbench::Tracer &tr = perfbench::tracer();
    const bool tracing = tr.on();

    // Set-up: the profiling pass that sizes every app's crash-point
    // range, repeated; the totals must repeat exactly.
    std::vector<double> setups;
    std::vector<std::uint64_t> totals, ltotals;
    for (unsigned r = 0; r < kCrashSetupReps; r++) {
        const std::int64_t t0 = nowNs();
        std::vector<std::uint64_t> t, l;
        for (std::uint32_t i = 0; i < apps.size(); i++) {
            Scoped s("fuzz.profilePmOps", i);
            t.push_back(fuzz::profilePmOps(apps[i], fc));
        }
        for (std::uint32_t i = 0; i < lapps.size(); i++) {
            Scoped s("fuzz.profilePmOps.lincheck", i);
            l.push_back(fuzz::profilePmOps(lapps[i], lc));
        }
        setups.push_back(secondsSince(t0));
        if (r == 0) {
            totals = t;
            ltotals = l;
        } else {
            rep.check(t == totals && l == ltotals,
                      "profilePmOps totals differ across repeats");
        }
    }

    if (tracing) {
        measurePmPrimitives(rep);
        crashProbes(opt, rep, fc, totals);
    }

    double tr_ns = 0, tr_n = 0, pl_ns = 0, pl_n = 0;
    CaseTally ft, lt;
    crashPart(rep, apps, totals, fc, "fuzz.runCase", opt.seconds / 2, ft,
              tracing, tr_ns, tr_n, pl_ns, pl_n);
    crashPart(rep, lapps, ltotals, lc, "fuzz.runCase.lincheck",
              opt.seconds / 2, lt, tracing, tr_ns, tr_n, pl_ns, pl_n);

    // Determinism self-check: case 0 of every app, run twice more,
    // must reproduce its digest.
    Scoped recheck("untraced.recheck");
    tr.setOn(false);
    for (unsigned part = 0; part < 2; part++) {
        const auto &list = part ? lapps : apps;
        const auto &tot = part ? ltotals : totals;
        const fuzz::FuzzConfig &cfg = part ? lc : fc;
        std::uint64_t a = 0x77157e5ull, b = 0x77157e5ull;
        for (std::uint32_t i = 0; i < list.size(); i++) {
            const fuzz::FuzzCase c = fuzz::deriveCase(list[i], 0, tot[i],
                                                      cfg);
            a = fold(a, fuzz::runCase(c, cfg).digest);
            b = fold(b, fuzz::runCase(c, cfg).digest);
        }
        rep.check(a == b, "%s cases not deterministic on rerun",
                  part ? "lincheck" : "crash");
    }
    tr.setOn(tracing);

    rep.note("digests: crash %016" PRIx64 ", lincheck %016" PRIx64
             " (first %u cases per app)",
             ft.digest, lt.digest, kCrashDigestCases);
    const double raw = caseRate({&ft, &lt}, false);
    const double normalized = caseRate({&ft, &lt}, true);
    rep.note("host: fuzz_cases_per_s %.6g (%" PRIu64 " cases, %" PRIu64
             " degraded), lincheck_cases_per_s %.6g (%" PRIu64
             " cases), both %.6g, normalized to the reference %.6g",
             caseRate({&ft}, false), ft.cases, ft.degraded,
             caseRate({&lt}, false), lt.cases, raw, normalized);
    if (!tracing) {
        rep.metrics["setup_s"] = median(setups);
        rep.metrics["throughput_per_s"] = normalized;
        return;
    }
    rep.metrics["fuzz_cases_per_s"] = caseRate({&ft}, false);
    rep.metrics["lincheck_cases_per_s"] = caseRate({&lt}, false);
    rep.metrics["fuzz.cases_degraded"] = static_cast<double>(ft.degraded);
    rep.metrics["fuzz.profile_ms"] =
        median(tr.durationsMs("fuzz.profilePmOps"));
    for (std::uint32_t li = 0; li < kLayerCount; li++) {
        const std::vector<double> d = tr.durationsMs("fuzz.runCase", li);
        rep.metrics[metricName(li, "crash_case_ms_p50")] =
            quantile(d, 0.5);
        rep.metrics[metricName(li, "crash_case_ms_p99")] =
            quantile(d, 0.99);
    }
    const std::vector<double> d = tr.durationsMs("fuzz.runCase.lincheck");
    rep.metrics["lincheck.case_ms_p50"] = quantile(d, 0.5);
    rep.metrics["lincheck.case_ms_p99"] = quantile(d, 0.99);
    rep.metrics["lincheck.keys_checked"] = static_cast<double>(lt.keys);
    rep.metrics["lincheck.budget_degraded"] =
        static_cast<double>(lt.budget);
    rep.metrics["trace_overhead_pct"] =
        overheadPct(tr_ns, tr_n, pl_ns, pl_n);
}

// ------------------------------------------------------------ main

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<kv-update|kv-read|trace-pipeline|crash-sweep> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--work-dir <dir>] [--rev <id>]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end)
                usage("--seed takes an integer");
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (*end || !(o.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--work-dir") {
            o.workDir = v;
        } else if (a == "--rev") {
            o.rev = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

/** Host metrics from an unoptimized or instrumented build mislead. */
bool
optimizedBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return false;
#else
    const std::string type = PERFBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
    return type == "Release" || type == "RelWithDebInfo";
#else
    return false;
#endif
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    if (!optimizedBuild()) {
        std::fprintf(stderr,
                     "perfbench: refusing to report host metrics from a "
                     "'%s' or sanitizer build\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }
    core::registerSuiteApps();
    perfbench::tracer().setOn(opt.trace);

    const unsigned nproc = std::thread::hardware_concurrency();
    std::printf("perfbench: workload %s seed %" PRIu64
                " seconds %g trace %d | rev %s | %s | %s | nproc %u\n",
                opt.workload.c_str(), opt.seed, opt.seconds,
                opt.trace ? 1 : 0, opt.rev.c_str(), PERFBENCH_CXX_ID,
                PERFBENCH_BUILD_TYPE, nproc);

    Report rep;
    const std::int64_t t0 = nowNs();
    {
        Scoped root("bench.run");
        if (opt.workload == "kv-update")
            runKv(opt, rep, true);
        else if (opt.workload == "kv-read")
            runKv(opt, rep, false);
        else if (opt.workload == "trace-pipeline")
            runPipeline(opt, rep);
        else if (opt.workload == "crash-sweep")
            runCrash(opt, rep);
        else
            usage(("unknown workload " + opt.workload).c_str());
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    if (opt.trace) {
        perfbench::Tracer &tr = perfbench::tracer();
        tr.setOn(false);
        for (const auto &[module, ms] : tr.selfMsByModule())
            rep.metrics["self." + module + "_ms"] = ms;
        const std::string path = opt.workDir + "/spans-" + opt.workload +
                                 "-" + std::to_string(opt.seed) + ".tsv";
        if (!tr.write(path))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
        rep.note("spans: %zu written to %s", tr.spans().size(),
                 path.c_str());
    } else {
        rep.metrics["peak_rss_mb"] = rss_mb;
    }
    rep.note("peak_rss_mb %.1f, wall %.2f s", rss_mb, secondsSince(t0));
    rep.note("checks: %" PRIu64 " failed of %" PRIu64 " attempted",
             rep.failed, rep.attempted);

    for (const std::string &line : rep.info)
        std::printf("perfbench: %s\n", line.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                rep.failed == 0 ? "true" : "false", rep.attempted,
                rep.failed);
    bool first = true;
    for (const auto &[name, value] : rep.metrics) {
        std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(),
                    std::isfinite(value) ? value : 0.0);
        first = false;
    }
    std::printf("}}\n");
    return rep.failed == 0 ? 0 : 1;
}
