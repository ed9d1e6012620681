/**
 * @file
 * Pipeline benchmark: one workload per process, run through the
 * stages a user runs — trace -> .mkp build -> synthesis -> full
 * validation -> sampled validation -> loopback serve — at the
 * library's default thread count.
 *
 *   pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--spans PATH]
 *
 * --trace 0 repeats the stages for S seconds and reports the
 * end-to-end metrics (medians over the repetitions). --trace 1 runs
 * the same stage calls wrapped in spans, adds the per-layer calls
 * listed in README.md, and reports the per-layer metrics; the spans
 * are written to --spans once the run ends. Every output the stages
 * produce is checked; the last stdout line is one JSON object with
 * the keys correct, attempted, failed and metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/hierarchy.hpp"
#include "core/mcc.hpp"
#include "core/model_generator.hpp"
#include "core/partition.hpp"
#include "core/profile.hpp"
#include "core/synthesis.hpp"
#include "dram/simulate.hpp"
#include "mem/trace.hpp"
#include "mem/trace_io.hpp"
#include "mem/wire.hpp"
#include "sampling/feature_vector.hpp"
#include "sampling/kmeans.hpp"
#include "sampling/representative.hpp"
#include "sampling/sampled_validate.hpp"
#include "scenario/engine.hpp"
#include "scenario/serve.hpp"
#include "scenario/spec.hpp"
#include "serve/client.hpp"
#include "serve/profile_store.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "telemetry/metrics.hpp"
#include "util/codec.hpp"
#include "util/thread_pool.hpp"
#include "validation/validate.hpp"
#include "workloads/devices.hpp"

#include "spans.hpp"

namespace
{

using namespace mocktails;
using perfbench::Clock;
using perfbench::secondsSince;
using perfbench::Span;
using perfbench::Tracer;

/// Requests per fetch chunk, session pull and mux pull.
constexpr std::uint64_t kChunk = 4096;
/// Closed-loop mux load: connections (one client thread each),
/// channels per connection and pulls kept outstanding per channel
/// (the depth serve::fetchTraceMux uses).
constexpr unsigned kMuxConnections = 2;
constexpr unsigned kMuxChannels = 3;
constexpr std::uint64_t kMuxPullDepth = 4;
/// Cycles per temporal phase: profile_tool build's default hierarchy.
constexpr std::uint64_t kCyclesPerPhase = 500000;
/// Synthesis seed of the synth and fetch stages; validateProfile's
/// default seed, so the synth stage makes the trace validation uses.
constexpr std::uint64_t kSynthSeed = validation::ValidationOptions{}.seed;
/// Set-up repetitions (setup_s is their median).
constexpr int kSetupReps = 5;
/// Untraced validateProfile repetitions in the traced run.
constexpr int kUntracedValidateReps = 3;

const char *const kLoopback = "127.0.0.1";

/// What a workload must still look like at its chosen size.
enum class Guard {
    LeavesPerRequestAtLeast,
    RejectsPerRequestBelow,
    RejectsPerRequestAtLeast,
};

struct WorkloadDef
{
    const char *name;
    /// Table II generator; nullptr for the scenario workload.
    const char *generator;
    /// Trace length, or for the scenario the factor phone-soc.scn's
    /// device request counts are scaled by.
    std::size_t size;
    Guard guard;
    double threshold;
};

// Why each workload is here, and what each one should and should not
// move, is in README.md next to this file.
const WorkloadDef kWorkloads[] = {
    {"dpu-stream", "FBC-Linear1", 800000, Guard::RejectsPerRequestBelow,
     0.01},
    {"vpu-leafy", "HEVC1", 200000, Guard::LeavesPerRequestAtLeast, 0.3},
    {"soc-contended", nullptr, 10, Guard::RejectsPerRequestAtLeast, 1.0},
};

/// examples/scenarios/phone-soc.scn with every device's request count
/// multiplied by @p scale and the scenario seed set to @p seed.
scenario::ScenarioSpec
phoneSoc(std::size_t scale, std::uint64_t seed)
{
    struct Dev
    {
        const char *name;
        const char *generator;
        std::uint64_t requests;
        std::uint32_t clockNum;
        std::uint32_t clockDen;
        mem::Tick start;
    };
    const Dev devices[] = {
        {"cpu", "CPU-G", 8000, 2, 1, 0},
        {"gpu", "T-Rex1", 8000, 1, 1, 0},
        {"display", "FBC-Linear1", 6000, 1, 2, 0},
        {"video", "HEVC1", 6000, 1, 1, 2000},
        {"dma", "DMA-Copy", 4000, 1, 1, 0},
    };
    scenario::ScenarioSpec spec;
    spec.name = "phone-soc";
    spec.seed = seed;
    spec.dram.channels = 4;
    spec.crossbar.latency = 8;
    std::uint32_t port = 0;
    for (const Dev &d : devices) {
        scenario::DeviceSpec device;
        device.name = d.name;
        device.generator = d.generator;
        device.requests = d.requests * scale;
        device.port = port++;
        device.clockNum = d.clockNum;
        device.clockDen = d.clockDen;
        device.startOffset = d.start;
        spec.devices.push_back(device);
    }
    return spec;
}

// ---------------------------------------------------------------------
// Small statistics and bookkeeping helpers
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile @p q (0..100).
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        q / 100.0 * static_cast<double>(v.size()) + 0.999999);
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
formatNumber(double value)
{
    char buf[64];
    const auto result = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, result.ptr);
}

/// Attempted operations and the ones that failed (output checks and
/// stage errors alike).
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    bool
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::printf("FAILED: %s\n", what.c_str());
        }
        return ok;
    }
};

/// Named per-repetition samples.
using Samples = std::map<std::string, std::vector<double>>;

std::uint64_t
counterValue(const char *name)
{
    return telemetry::MetricsRegistry::global().counter(name).value();
}

// ---------------------------------------------------------------------
// Run state
// ---------------------------------------------------------------------

struct Context
{
    const WorkloadDef *workload = nullptr;
    std::uint64_t seed = 0;
    bool isScenario = false;
    scenario::ScenarioSpec spec;

    mem::Trace trace;               ///< the baseline (input) trace
    std::vector<std::uint8_t> mkt;  ///< trace encoded as .mkt bytes
    std::vector<std::uint8_t> mkp;  ///< first build's compressed profile
    std::string id;                 ///< id every fetch asks for
    std::vector<std::uint64_t> muxSeeds;
    /// threads=1 synthesis of the profile at kSynthSeed: the exact
    /// sequential engine the default-thread synth stage must match.
    std::vector<mem::Request> sequentialSynth;
    /// Expected served stream per synthesis seed.
    std::map<std::uint64_t, std::vector<mem::Request>> expected;

    // The server refers to the store: declared after it so it is
    // destroyed (and stopped) first.
    std::unique_ptr<serve::ProfileStore> store;
    std::unique_ptr<serve::StreamServer> server;

    bool haveWorstError = false;
    double worstError = 0.0;

    const std::vector<mem::Request> &
    expectedFor(std::uint64_t seed) const
    {
        return expected.at(isScenario ? kSynthSeed : seed);
    }
};

/// Generate the workload's input trace from the seed.
bool
makeInput(const Context &ctx, mem::Trace &out, std::string *error)
{
    if (!ctx.isScenario) {
        out = workloads::makeDeviceTrace(ctx.workload->generator,
                                         ctx.workload->size, ctx.seed);
        return true;
    }
    scenario::ScenarioEngine engine(ctx.spec);
    if (!engine.buildStreams(error))
        return false;
    out = engine.mergedStream();
    return true;
}

/**
 * One set-up: input generation, .mkt encoding, store insert, server
 * start and a warming store lookup of every id the fetches use.
 * @return seconds taken, or a negative value on failure.
 */
double
setUp(Context &ctx, Tally &tally)
{
    if (ctx.server)
        ctx.server->stop();
    ctx.server.reset();
    ctx.store.reset();

    const auto start = Clock::now();
    std::string error;
    mem::Trace trace;
    if (!tally.check(makeInput(ctx, trace, &error),
                     "set-up: input generation: " + error))
        return -1.0;
    std::vector<std::uint8_t> mkt = mem::encodeTrace(trace);

    ctx.store = std::make_unique<serve::ProfileStore>();
    std::vector<std::string> warm;
    if (ctx.isScenario) {
        scenario::registerScenario(*ctx.store, ctx.spec, &ctx.id);
        warm.push_back(ctx.id);
        for (std::size_t k = 0; k < ctx.spec.devices.size(); ++k)
            warm.push_back(
                scenario::scenarioDeviceId(ctx.spec.name, k));
    } else {
        core::Profile profile;
        if (!tally.check(
                core::Profile::decodeCompressed(ctx.mkp, profile, &error),
                "set-up: profile decode: " + error))
            return -1.0;
        ctx.id = ctx.workload->name;
        ctx.store->insert(ctx.id, std::move(profile));
        warm.push_back(ctx.id);
    }
    ctx.server = std::make_unique<serve::StreamServer>(*ctx.store);
    if (!tally.check(ctx.server->start(&error),
                     "set-up: server start: " + error))
        return -1.0;
    for (const std::string &id : warm) {
        if (!tally.check(ctx.store->get(id, &error) != nullptr,
                         "set-up: store lookup " + id + ": " + error))
            return -1.0;
    }
    const double seconds = secondsSince(start);

    tally.check(trace.requests() == ctx.trace.requests() &&
                    mkt == ctx.mkt,
                "set-up: the same seed gave different inputs");
    return seconds;
}

/**
 * Untimed preparation: the input, the reference profile, the expected
 * stream of every synthesis seed and the workload shape guard.
 */
bool
prepare(Context &ctx, Tally &tally)
{
    std::string error;
    if (!tally.check(makeInput(ctx, ctx.trace, &error),
                     "prepare: input generation: " + error))
        return false;
    ctx.mkt = mem::encodeTrace(ctx.trace);
    const core::Profile profile = core::buildProfile(
        ctx.trace, core::PartitionConfig::twoLevelTs(kCyclesPerPhase));
    ctx.mkp = profile.encodeCompressed();

    core::Profile decoded;
    tally.check(core::Profile::decodeCompressed(ctx.mkp, decoded) &&
                    decoded.encodeCompressed() == ctx.mkp,
                "decoding the .mkp and re-encoding it changed its bytes");

    for (unsigned i = 0; i < kMuxConnections * kMuxChannels; ++i)
        ctx.muxSeeds.push_back(kSynthSeed + 1 + i);
    ctx.sequentialSynth =
        core::synthesize(profile, kSynthSeed, 1).requests();
    if (ctx.isScenario) {
        // The server streams the stored merged trace whatever the seed.
        ctx.expected[kSynthSeed] = ctx.trace.requests();
    } else {
        ctx.expected[kSynthSeed] = ctx.sequentialSynth;
        for (const std::uint64_t seed : ctx.muxSeeds)
            ctx.expected[seed] =
                core::synthesize(profile, seed, 0).requests();
    }

    // Shape guard: the property the workload was chosen for.
    const dram::SimulationResult dram_run =
        dram::simulateTrace(ctx.trace);
    const double requests = static_cast<double>(ctx.trace.size());
    const double leaves_per_request =
        static_cast<double>(profile.leaves.size()) / requests;
    const double rejects_per_request =
        static_cast<double>(dram_run.memory.backpressureRejects) /
        static_cast<double>(std::max<std::uint64_t>(
            dram_run.memory.requests, 1));
    std::printf("shape: %zu requests, %zu leaves (%.4f per request), "
                "%llu DRAM backpressure rejects (%.4f per request)\n",
                ctx.trace.size(), profile.leaves.size(),
                leaves_per_request,
                static_cast<unsigned long long>(
                    dram_run.memory.backpressureRejects),
                rejects_per_request);
    const WorkloadDef &w = *ctx.workload;
    switch (w.guard) {
    case Guard::LeavesPerRequestAtLeast:
        tally.check(leaves_per_request >= w.threshold,
                    "shape guard: leaves per request " +
                        formatNumber(leaves_per_request) + " < " +
                        formatNumber(w.threshold));
        break;
    case Guard::RejectsPerRequestBelow:
        tally.check(rejects_per_request < w.threshold,
                    "shape guard: rejects per request " +
                        formatNumber(rejects_per_request) +
                        " >= " + formatNumber(w.threshold));
        break;
    case Guard::RejectsPerRequestAtLeast:
        tally.check(rejects_per_request >= w.threshold,
                    "shape guard: rejects per request " +
                        formatNumber(rejects_per_request) + " < " +
                        formatNumber(w.threshold));
        break;
    }
    return true;
}

// ---------------------------------------------------------------------
// Closed-loop mux sessions
// ---------------------------------------------------------------------

struct MuxSessionOut
{
    std::uint64_t seed = 0;
    std::vector<mem::Request> requests;
};

struct MuxConnection
{
    std::vector<MuxSessionOut> sessions;
    std::vector<double> chunkMs; ///< pull -> chunk latency, non-empty
    std::string error;           ///< empty on success
};

/**
 * One client thread: opens every session of @p conn as a channel and
 * keeps kMuxPullDepth pulls outstanding on each until it drains, then
 * closes it. Latency runs from sending a pull to its chunk's arrival
 * (pulls on one channel are answered in order).
 */
void
driveMuxConnection(std::uint16_t port, const std::string &id,
                   MuxConnection &conn)
{
    serve::MuxClient client;
    std::string &error = conn.error;
    if (!client.connect(kLoopback, port, {}, &error))
        return;
    const std::size_t n = conn.sessions.size();
    std::vector<std::deque<Clock::time_point>> sent(n);
    for (std::size_t k = 0; k < n; ++k) {
        if (!client.openChannel(k + 1, id, conn.sessions[k].seed, &error))
            return;
        client.setSink(k + 1, &conn.sessions[k].requests);
    }
    const auto topUp = [&](std::uint64_t channel) {
        const serve::MuxClient::Channel *state = client.channel(channel);
        while (state->pullsOutstanding < kMuxPullDepth) {
            sent[channel - 1].push_back(Clock::now());
            if (!client.pull(channel, kChunk, &error))
                return false;
        }
        return true;
    };
    std::size_t live = n;
    while (live > 0) {
        serve::MuxClient::Event event;
        if (!client.nextEvent(event, &error))
            return;
        const serve::MuxClient::Channel *state =
            client.channel(event.channel);
        if (state == nullptr)
            continue;
        using Kind = serve::MuxClient::Event::Kind;
        switch (event.kind) {
        case Kind::Opened:
            if (!topUp(event.channel))
                return;
            break;
        case Kind::Chunk: {
            auto &queue = sent[event.channel - 1];
            if (!queue.empty()) {
                if (event.count > 0)
                    conn.chunkMs.push_back(
                        1e3 * secondsSince(queue.front()));
                queue.pop_front();
            }
            if (!state->done) {
                if (!topUp(event.channel))
                    return;
            } else if (state->pullsOutstanding == 0 && !state->closed) {
                if (!client.closeChannel(event.channel, &error))
                    return;
            }
            break;
        }
        case Kind::Closed:
            --live;
            break;
        case Kind::ChannelError:
            error = "channel " + std::to_string(event.channel) + ": " +
                    event.message;
            return;
        }
    }
}

struct MuxRun
{
    std::vector<MuxConnection> connections;
    std::uint64_t requests = 0;
    double seconds = 0.0;
};

MuxRun
runMux(const Context &ctx)
{
    MuxRun run;
    run.connections.resize(kMuxConnections);
    std::size_t next_seed = 0;
    for (MuxConnection &conn : run.connections) {
        conn.sessions.resize(kMuxChannels);
        for (MuxSessionOut &s : conn.sessions)
            s.seed = ctx.muxSeeds[next_seed++];
    }
    const std::uint16_t port = ctx.server->port();
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (MuxConnection &conn : run.connections) {
        threads.emplace_back([&conn, port, &ctx] {
            try {
                driveMuxConnection(port, ctx.id, conn);
            } catch (const std::exception &e) {
                conn.error = std::string("exception: ") + e.what();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    run.seconds = secondsSince(start);
    for (const MuxConnection &conn : run.connections) {
        for (const MuxSessionOut &s : conn.sessions)
            run.requests += s.requests.size();
    }
    return run;
}

// ---------------------------------------------------------------------
// One repetition of every stage
// ---------------------------------------------------------------------

/**
 * Back-to-back calls of each stage per repetition. Short stages are
 * called more often so that every end-to-end median rests on a similar
 * amount of measured time.
 */
struct StageReps
{
    int scenario = 1;
    int build = 1;
    int synth = 1;
    int validate = 1;
    int sampled = 1;
    int fetch = 1;
    int mux = 1;
};

/// Calls needed for about 0.5 s of measured time per stage (1 s for
/// the mux phase, whose p99 needs many chunks), from the untimed
/// warm-up repetition's stage times.
StageReps
stageReps(Samples &warm)
{
    constexpr int kMaxReps = 8;
    const auto reps = [&](const char *name, double target_s = 0.5) {
        const std::vector<double> &v = warm[name];
        if (v.empty() || v.front() <= 0.0)
            return 1;
        return std::clamp(
            static_cast<int>(std::lround(target_s / v.front())), 1,
            kMaxReps);
    };
    StageReps r;
    r.scenario = reps("scenario_s");
    r.build = reps("build_s");
    r.synth = reps("synth_s");
    r.validate = reps("validate_s");
    r.sampled = reps("validate_sampled_s");
    r.fetch = reps("fetch_s");
    r.mux = reps("mux_s", 1.0);
    return r;
}

/**
 * Run every stage. The stage calls are the same with and without a
 * tracer; with one, each is recorded as a span and the per-layer calls
 * that follow each stage run as well (the traced run calls each stage
 * once).
 */
void
runIteration(Context &ctx, Tracer *tracer, const StageReps &reps,
             Samples &e2e, Samples &layer, std::vector<double> &chunk_ms,
             Tally &tally)
{
    std::string error;

    for (int r = 0; ctx.isScenario && r < reps.scenario; ++r) {
        Span stage(tracer, "stage.scenario");
        {
            scenario::ScenarioEngine engine(ctx.spec);
            scenario::ScenarioReport report;
            Span call(tracer, "scenario.run", &stage);
            const bool ok = engine.run(report, &error);
            e2e["scenario_s"].push_back(call.stop());
            if (tally.check(ok, "scenario run: " + error))
                tally.check(engine.mergedStream().requests() ==
                                ctx.trace.requests(),
                            "scenario: merged stream differs from the "
                            "input");
        }
        if (tracer != nullptr) {
            scenario::ScenarioEngine engine(ctx.spec);
            bool ok = false;
            {
                Span call(tracer, "scenario.streams", &stage);
                ok = engine.buildStreams(&error);
            }
            tally.check(ok, "scenario buildStreams: " + error);
            {
                Span call(tracer, "scenario.merge", &stage);
                engine.mergedStream();
            }
            scenario::ScenarioOptions options;
            options.skipIsolated = true;
            scenario::ScenarioEngine contended(ctx.spec, options);
            scenario::ScenarioReport report;
            {
                Span call(tracer, "scenario.contended", &stage);
                ok = contended.run(report, &error);
            }
            tally.check(ok, "scenario run (skipIsolated): " + error);
        }
    }

    // Build: what `profile_tool build` does, minus disk.
    core::Profile profile;
    for (int r = 0; r < reps.build; ++r) {
        Span stage(tracer, "stage.build");
        mem::Trace trace;
        std::vector<std::uint8_t> mkp;
        double seconds = 0.0;
        bool ok = false;
        {
            Span call(tracer, "mem.trace_decode", &stage);
            ok = mem::decodeTrace(ctx.mkt, trace);
            seconds += call.stop();
        }
        // Release the previous call's profile before timing this one.
        profile = core::Profile{};
        {
            Span call(tracer, "core.build", &stage);
            profile = core::buildProfile(
                trace, core::PartitionConfig::twoLevelTs(kCyclesPerPhase));
            seconds += call.stop();
        }
        {
            Span call(tracer, "core.encode", &stage);
            mkp = profile.encodeCompressed();
            seconds += call.stop();
        }
        e2e["build_s"].push_back(seconds);
        tally.check(ok, "build: .mkt decode failed");
        tally.check(mkp == ctx.mkp, "build: .mkp differs from the first "
                                    "build of the same input");
        if (tracer != nullptr) {
            Span call(tracer, "core.partition", &stage);
            const std::vector<core::Leaf> leaves = core::buildLeaves(
                trace, core::PartitionConfig::twoLevelTs(kCyclesPerPhase));
            call.stop();
            tally.check(leaves.size() == profile.leaves.size(),
                        "partition: leaf count differs from the profile");
        }
    }

    // Synth: decode the distributable profile and synthesise.
    mem::Trace synthetic;
    for (int r = 0; r < reps.synth; ++r) {
        Span stage(tracer, "stage.synth");
        core::Profile decoded;
        double seconds = 0.0;
        bool ok = false;
        {
            Span call(tracer, "core.decode", &stage);
            ok = core::Profile::decodeCompressed(ctx.mkp, decoded, &error);
            seconds += call.stop();
        }
        const std::uint64_t wraps_before =
            counterValue("synthesis.address_wraps");
        synthetic = mem::Trace{};
        {
            Span call(tracer, "core.synth", &stage);
            synthetic = core::synthesize(decoded, kSynthSeed, 0);
            seconds += call.stop();
        }
        e2e["synth_s"].push_back(seconds);
        tally.check(ok, "synth: .mkp decode: " + error);
        tally.check(synthetic.requests() == ctx.sequentialSynth,
                    "synth: default-thread synthesis differs from "
                    "threads=1");
        if (tracer != nullptr) {
            layer["core.address_wraps"].push_back(static_cast<double>(
                counterValue("synthesis.address_wraps") - wraps_before));
            mem::Trace sequential;
            {
                Span call(tracer, "core.synth_t1", &stage);
                sequential = core::synthesize(decoded, kSynthSeed, 1);
            }
            tally.check(sequential.requests() == synthetic.requests(),
                        "synth: threads=1 differs from default threads");
        }
    }

    // Full validation, default options.
    validation::ValidationReport full;
    for (int r = 0; r < reps.validate; ++r) {
        Span stage(tracer, "stage.validate");
        {
            Span call(tracer, "validation.validate", &stage);
            full = validation::validateProfile(ctx.trace, profile);
            e2e["validate_s"].push_back(call.stop());
        }
        e2e["validate_worst_err_pct"].push_back(full.worstErrorPercent);
        if (!ctx.haveWorstError) {
            ctx.haveWorstError = true;
            ctx.worstError = full.worstErrorPercent;
        }
        tally.check(full.worstErrorPercent == ctx.worstError,
                    "validate: worst error changed between repetitions");
        if (tracer != nullptr) {
            // The four substrate runs validateProfile fans out, called
            // one after another on the same synthetic trace.
            dram::SimulationOptions parallel;
            dram::SimulationOptions sequential;
            sequential.threads = 1;
            const std::uint64_t events0 =
                counterValue("sim.events_executed");
            const std::uint64_t requests0 = counterValue("dram.requests");
            const std::uint64_t rejects0 =
                counterValue("dram.backpressure_rejects");
            dram::SimulationResult base;
            dram::SimulationResult synth;
            {
                Span call(tracer, "dram.sim", &stage);
                base = dram::simulateTrace(ctx.trace, {}, {}, parallel);
                synth = dram::simulateTrace(synthetic, {}, {}, parallel);
            }
            const double dram_requests = static_cast<double>(
                counterValue("dram.requests") - requests0);
            layer["dram.requests"].push_back(dram_requests);
            layer["dram.events_per_req"].push_back(
                static_cast<double>(counterValue("sim.events_executed") -
                                    events0) /
                dram_requests);
            layer["dram.rejects_per_req"].push_back(
                static_cast<double>(
                    counterValue("dram.backpressure_rejects") - rejects0) /
                dram_requests);
            {
                Span call(tracer, "dram.sim_t1", &stage);
                const dram::SimulationResult b1 =
                    dram::simulateTrace(ctx.trace, {}, {}, sequential);
                const dram::SimulationResult s1 =
                    dram::simulateTrace(synthetic, {}, {}, sequential);
                call.stop();
                tally.check(b1.readBursts() == base.readBursts() &&
                                s1.readBursts() == synth.readBursts() &&
                                b1.avgReadLatency() ==
                                    base.avgReadLatency() &&
                                s1.avgReadLatency() ==
                                    synth.avgReadLatency(),
                            "dram: threads=1 result differs from default "
                            "threads");
            }
            {
                Span call(tracer, "cache.run", &stage);
                cache::Hierarchy base_cache{cache::HierarchyConfig{}};
                cache::Hierarchy synth_cache{cache::HierarchyConfig{}};
                base_cache.run(ctx.trace);
                synth_cache.run(synthetic);
            }
        }
    }

    // Sampled validation, default options.
    for (int r = 0; r < reps.sampled; ++r) {
        Span stage(tracer, "stage.validate_sampled");
        sampling::SampledValidationReport sampled;
        {
            Span call(tracer, "sampling.validate_sampled", &stage);
            sampled = sampling::validateProfileSampled(ctx.trace, profile);
            e2e["validate_sampled_s"].push_back(call.stop());
        }
        const sampling::BoundsCheck bounds =
            sampling::checkAgainstFull(sampled, full);
        e2e["sampled_gap_pct"].push_back(bounds.worstDeltaPercent);
        layer["sampling.gap_pct"].push_back(bounds.worstDeltaPercent);
        tally.check(bounds.passed,
                    "sampled: checkAgainstFull worst delta " +
                        formatNumber(bounds.worstDeltaPercent) +
                        "% > bound " + formatNumber(bounds.boundPercent) +
                        "%");
        if (tracer != nullptr) {
            layer["sampling.k"].push_back(
                static_cast<double>(sampled.set.k));
            layer["sampling.simulated_share"].push_back(
                static_cast<double>(sampled.simulatedRequests) /
                static_cast<double>(
                    std::max<std::uint64_t>(sampled.totalRequests, 1)));
            {
                Span call(tracer, "sampling.select", &stage);
                sampling::selectRepresentatives(profile);
            }
            // selectRepresentatives' first two steps, called from
            // here so each gets its own span.
            Span parts(tracer, "sampling.select_parts", &stage);
            std::vector<sampling::FeatureVector> raw;
            {
                Span call(tracer, "sampling.signature", &parts);
                raw = sampling::profileSignatures(profile);
            }
            const std::vector<sampling::FeatureVector> points =
                sampling::Standardizer::fit(raw).applyAll(raw);
            {
                Span call(tracer, "sampling.cluster", &parts);
                sampling::cluster(points);
            }
        }
    }

    // Serve: the blocking client, then closed-loop mux sessions.
    {
        Span stage(tracer, "stage.serve");
        const std::uint16_t port = ctx.server->port();
        double cpu = 0.0;
        double wall = 0.0;
        for (int r = 0; r < reps.fetch; ++r) {
            mem::Trace fetched;
            const double cpu0 = processCpuSeconds();
            Span call(tracer, "serve.fetch", &stage);
            const bool ok = serve::fetchTrace(kLoopback, port, ctx.id,
                                              kSynthSeed, fetched, kChunk,
                                              &error);
            const double seconds = call.stop();
            cpu += processCpuSeconds() - cpu0;
            wall += seconds;
            e2e["fetch_s"].push_back(seconds);
            if (tally.check(ok, "fetch: " + error))
                tally.check(fetched.requests() ==
                                ctx.expectedFor(kSynthSeed),
                            "fetch: stream differs from local synthesis");
        }
        for (int r = 0; r < reps.mux; ++r) {
            const double cpu0 = processCpuSeconds();
            Span call(tracer, "serve.mux", &stage);
            MuxRun run = runMux(ctx);
            call.stop();
            cpu += processCpuSeconds() - cpu0;
            wall += run.seconds;
            e2e["mux_s"].push_back(run.seconds);
            e2e["mux_mreq_s"].push_back(
                static_cast<double>(run.requests) / run.seconds / 1e6);
            for (const MuxConnection &conn : run.connections) {
                if (!tally.check(conn.error.empty(),
                                 "mux session: " + conn.error))
                    continue;
                chunk_ms.insert(chunk_ms.end(), conn.chunkMs.begin(),
                                conn.chunkMs.end());
                for (const MuxSessionOut &s : conn.sessions)
                    tally.check(s.requests == ctx.expectedFor(s.seed),
                                "mux session seed " +
                                    std::to_string(s.seed) +
                                    ": stream differs from local "
                                    "synthesis");
            }
        }
        if (tracer != nullptr) {
            layer["serve.fetch_cpu_per_wall"].push_back(cpu / wall);
            {
                mem::Trace fetched;
                Span call(tracer, "serve.mux1_fetch", &stage);
                const bool ok = serve::fetchTraceMux(
                    kLoopback, port, ctx.id, kSynthSeed, fetched, kChunk,
                    &error);
                call.stop();
                if (tally.check(ok, "mux1 fetch: " + error))
                    tally.check(fetched.requests() ==
                                    ctx.expectedFor(kSynthSeed),
                                "mux1 fetch: stream differs from local "
                                "synthesis");
            }
            {
                std::vector<mem::Request> drained;
                const std::shared_ptr<const serve::StoredProfile> stored =
                    ctx.store->get(ctx.id, &error);
                if (tally.check(stored != nullptr,
                                "session: store lookup: " + error)) {
                    serve::SessionOptions options;
                    options.seed = kSynthSeed;
                    Span call(tracer, "serve.session", &stage);
                    serve::SynthesisSession session(stored, options);
                    while (session.next(drained, kChunk) > 0) {
                    }
                    call.stop();
                    tally.check(drained == ctx.expectedFor(kSynthSeed),
                                "session: stream differs from local "
                                "synthesis");
                }
            }
            {
                // Wire codec alone: encode and decode the synthetic
                // trace in fetch-sized chunks, no socket.
                const std::vector<mem::Request> &reqs =
                    synthetic.requests();
                std::vector<mem::Request> decoded;
                decoded.reserve(reqs.size());
                bool ok = true;
                Span call(tracer, "mem.wire", &stage);
                mem::RequestCodecState enc_state;
                mem::RequestCodecState dec_state;
                for (std::size_t pos = 0; pos < reqs.size() && ok;
                     pos += kChunk) {
                    const std::size_t n = std::min<std::size_t>(
                        kChunk, reqs.size() - pos);
                    util::ByteWriter writer;
                    mem::encodeRequests(writer, reqs.data() + pos, n,
                                        enc_state);
                    util::ByteReader reader(writer.bytes());
                    ok = mem::decodeRequests(reader, n, decoded,
                                             dec_state);
                }
                call.stop();
                tally.check(ok && decoded == reqs,
                            "wire codec: round trip changed the stream");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printMetric(const Metric &m, const std::string &note)
{
    std::printf("  %-28s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), note.c_str());
}

std::string
spreadNote(const std::vector<double> &v)
{
    if (v.empty())
        return "(n=0)";
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    return "(median of n=" + std::to_string(v.size()) + ", min " +
           formatNumber(*lo) + ", max " + formatNumber(*hi) + ")";
}

void
printResult(const Tally &tally, const std::vector<Metric> &metrics)
{
    std::string json = "{\"correct\": ";
    json += tally.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted);
    json += ", \"failed\": " + std::to_string(tally.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            json += ", ";
        json += "\"" + metrics[i].name + "\": {\"value\": " +
                formatNumber(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\n"
                 "workloads: dpu-stream vpu-leafy soc-contended\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::string spans_path;
    std::uint64_t seed = 0;
    double run_seconds = 0.0;
    int trace_flag = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            workload_name = value;
        else if (flag == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            run_seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            trace_flag = std::atoi(value);
        else if (flag == "--spans")
            spans_path = value;
        else
            return usage();
    }
    if (argc % 2 == 0 || run_seconds <= 0.0 ||
        (trace_flag != 0 && trace_flag != 1))
        return usage();
    Context ctx;
    for (const WorkloadDef &w : kWorkloads) {
        if (workload_name == w.name)
            ctx.workload = &w;
    }
    if (ctx.workload == nullptr)
        return usage();
    const bool traced = trace_flag == 1;
    ctx.seed = seed;
    ctx.isScenario = ctx.workload->generator == nullptr;
    if (ctx.isScenario)
        ctx.spec = phoneSoc(ctx.workload->size, seed);

    const unsigned nproc = std::thread::hardware_concurrency();
    const unsigned threads = util::ThreadPool::defaultThreadCount();
    std::printf("workload %s seed %llu seconds %g trace %d nproc %u "
                "threads %u chunk %llu mux %ux%u depth %llu\n",
                ctx.workload->name, static_cast<unsigned long long>(seed),
                run_seconds, trace_flag, nproc, threads,
                static_cast<unsigned long long>(kChunk), kMuxConnections,
                kMuxChannels,
                static_cast<unsigned long long>(kMuxPullDepth));

    Tally tally;
    if (!prepare(ctx, tally)) {
        std::fprintf(stderr, "pipeline_bench: preparation failed\n");
        return 1;
    }
    std::vector<double> setup;
    for (int i = 0; i < kSetupReps; ++i) {
        const double s = setUp(ctx, tally);
        if (s < 0.0) {
            std::fprintf(stderr, "pipeline_bench: set-up failed\n");
            return 1;
        }
        setup.push_back(s);
    }

    // One untimed repetition first, so allocator growth, page faults
    // and thread start-up are not charged to the first sample.
    StageReps reps;
    {
        Samples warm_e2e;
        Samples warm_layer;
        std::vector<double> warm_chunks;
        runIteration(ctx, nullptr, reps, warm_e2e, warm_layer,
                     warm_chunks, tally);
        if (!traced)
            reps = stageReps(warm_e2e);
    }

    // The traced run's baseline: untraced validateProfile calls, whose
    // worst error must also match every traced repetition's.
    std::vector<double> untraced_validate;
    if (traced) {
        core::Profile profile;
        core::Profile::decodeCompressed(ctx.mkp, profile);
        for (int i = 0; i < kUntracedValidateReps; ++i) {
            const auto start = Clock::now();
            const validation::ValidationReport report =
                validation::validateProfile(ctx.trace, profile);
            untraced_validate.push_back(secondsSince(start));
            tally.check(report.worstErrorPercent == ctx.worstError,
                        "validate: untraced worst error changed");
        }
        telemetry::setEnabled(true);
    }

    Tracer tracer;
    Samples e2e;
    Samples layer;
    std::vector<double> chunk_ms;
    // Repeat until another repetition would end further past the
    // deadline than stopping now leaves before it.
    const std::uint64_t min_iterations = traced ? 2 : 3;
    const auto loop_start = Clock::now();
    double last = 0.0;
    std::uint64_t iterations = 0;
    for (; iterations < min_iterations ||
           secondsSince(loop_start) + 0.5 * last < run_seconds;
         ++iterations) {
        const auto start = Clock::now();
        tracer.setIteration(iterations);
        runIteration(ctx, traced ? &tracer : nullptr, reps, e2e, layer,
                     chunk_ms, tally);
        last = secondsSince(start);
    }
    const double loop_seconds = secondsSince(loop_start);

    std::vector<Metric> metrics;
    const auto med = [&](const char *name) { return median(e2e[name]); };
    const double requests = static_cast<double>(ctx.trace.size());

    std::printf("%s: %llu repetitions in %.2f s, %zu mux chunks; calls "
                "per repetition: scenario %d build %d synth %d validate "
                "%d sampled %d fetch %d mux %d\n",
                traced ? "traced" : "untraced",
                static_cast<unsigned long long>(iterations), loop_seconds,
                chunk_ms.size(), reps.scenario, reps.build, reps.synth,
                reps.validate, reps.sampled, reps.fetch, reps.mux);
    std::printf("mux chunk latency ms: p50 %.3f p90 %.3f p95 %.3f "
                "p99 %.3f p99.9 %.3f max %.3f\n",
                percentile(chunk_ms, 50.0), percentile(chunk_ms, 90.0),
                percentile(chunk_ms, 95.0), percentile(chunk_ms, 99.0),
                percentile(chunk_ms, 99.9), percentile(chunk_ms, 100.0));
    if (!traced) {
        metrics = {
            {"setup_s", median(setup), "s"},
            {"build_s", med("build_s"), "s"},
            {"synth_s", med("synth_s"), "s"},
            {"validate_s", med("validate_s"), "s"},
            {"fetch_s", med("fetch_s"), "s"},
            {"mux_mreq_s", med("mux_mreq_s"), "Mreq/s"},
            {"mux_chunk_p50_ms", percentile(chunk_ms, 50.0), "ms"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"mkp_bytes_per_req",
             static_cast<double>(ctx.mkp.size()) / requests, "B"},
            {"validate_worst_err_pct", med("validate_worst_err_pct"), "%"},
        };
        std::printf("end-to-end metrics:\n");
        for (const Metric &m : metrics) {
            std::string note;
            if (m.name == "setup_s")
                note = spreadNote(setup);
            else if (m.name == "mux_chunk_p50_ms")
                note = "(over " + std::to_string(chunk_ms.size()) +
                       " chunks)";
            else if (e2e.count(m.name))
                note = spreadNote(e2e[m.name]);
            printMetric(m, note);
        }
        std::printf("printed only (see README.md):\n");
        printMetric({"validate_sampled_s", med("validate_sampled_s"), "s"},
                    spreadNote(e2e["validate_sampled_s"]));
        printMetric({"mux_chunk_p99_ms", percentile(chunk_ms, 99.0), "ms"},
                    "(over " + std::to_string(chunk_ms.size()) +
                        " chunks)");
        printMetric({"sampled_gap_pct", med("sampled_gap_pct"), "%"},
                    spreadNote(e2e["sampled_gap_pct"]));
        if (ctx.isScenario)
            printMetric({"scenario_s", med("scenario_s"), "s"},
                        spreadNote(e2e["scenario_s"]));
    } else {
        const auto span = [&](const char *name) {
            return median(tracer.perIterationSeconds(name));
        };
        const auto count = [&](const char *name) {
            return median(layer[name]);
        };
        core::Profile profile;
        core::Profile::decodeCompressed(ctx.mkp, profile);
        std::uint64_t models = 0;
        std::uint64_t constant = 0;
        for (const core::LeafModel &leaf : profile.leaves) {
            for (const core::FeatureModelPtr *m :
                 {&leaf.deltaTime, &leaf.stride, &leaf.op, &leaf.size}) {
                if (*m == nullptr)
                    continue;
                ++models;
                if ((*m)->tag() == core::ConstantModel::kTag)
                    ++constant;
            }
        }
        const double validate_untraced = median(untraced_validate);
        const double validate_traced = span("validation.validate");
        const double dram_sim = span("dram.sim");
        const double core_synth = span("core.synth");
        const double synthetic_requests = requests; // count-preserving
        metrics = {
            {"run.nproc", static_cast<double>(nproc), "count"},
            {"run.threads", static_cast<double>(threads), "count"},
            {"mem.trace_decode_s", span("mem.trace_decode"), "s"},
            {"mem.wire_mreq_s",
             synthetic_requests / span("mem.wire") / 1e6, "Mreq/s"},
            {"core.partition_s", span("core.partition"), "s"},
            {"core.build_s", span("core.build"), "s"},
            {"core.encode_s", span("core.encode"), "s"},
            {"core.decode_s", span("core.decode"), "s"},
            {"core.synth_s", core_synth, "s"},
            {"core.synth_speedup", span("core.synth_t1") / core_synth,
             "ratio"},
            {"core.leaves", static_cast<double>(profile.leaves.size()),
             "count"},
            {"core.const_model_share",
             static_cast<double>(constant) /
                 static_cast<double>(std::max<std::uint64_t>(models, 1)),
             "ratio"},
            {"core.address_wraps", count("core.address_wraps"), "count"},
            {"dram.sim_s", dram_sim, "s"},
            {"dram.mreq_s", count("dram.requests") / dram_sim / 1e6,
             "Mreq/s"},
            {"dram.parallel_speedup", span("dram.sim_t1") / dram_sim,
             "ratio"},
            {"dram.events_per_req", count("dram.events_per_req"),
             "count"},
            {"dram.rejects_per_req", count("dram.rejects_per_req"),
             "count"},
            {"cache.run_s", span("cache.run"), "s"},
            {"validation.fanout_overlap",
             (core_synth + dram_sim + span("cache.run")) /
                 validate_untraced,
             "ratio"},
            {"validation.worst_err_pct", ctx.worstError, "%"},
            {"validation.trace_overhead_s",
             validate_traced - validate_untraced, "s"},
            {"sampling.select_s", span("sampling.select"), "s"},
            {"sampling.signature_s", span("sampling.signature"), "s"},
            {"sampling.cluster_s", span("sampling.cluster"), "s"},
            {"sampling.k", count("sampling.k"), "count"},
            {"sampling.simulated_share", count("sampling.simulated_share"),
             "ratio"},
            {"sampling.validate_sampled_s",
             span("sampling.validate_sampled"), "s"},
            {"sampling.speedup",
             validate_traced / span("sampling.validate_sampled"), "ratio"},
            {"sampling.gap_pct", count("sampling.gap_pct"), "%"},
            {"serve.session_mreq_s",
             requests / span("serve.session") / 1e6, "Mreq/s"},
            {"serve.mux1_fetch_s", span("serve.mux1_fetch"), "s"},
            {"serve.mux_chunk_p99_ms", percentile(chunk_ms, 99.0), "ms"},
            {"serve.fetch_cpu_per_wall",
             count("serve.fetch_cpu_per_wall"), "ratio"},
        };
        // scenario.* exist only where the scenario module runs; the
        // other workloads report 0 for them.
        const double scenario_run = span("scenario.run");
        const double scenario_contended = span("scenario.contended");
        metrics.push_back({"scenario.run_s", scenario_run, "s"});
        metrics.push_back(
            {"scenario.streams_s", span("scenario.streams"), "s"});
        metrics.push_back({"scenario.merge_s", span("scenario.merge"), "s"});
        metrics.push_back(
            {"scenario.contended_s", scenario_contended, "s"});
        metrics.push_back({"scenario.isolated_s",
                           scenario_run - scenario_contended, "s"});

        std::printf("per-layer metrics (untraced validate_s %.6g s, "
                    "traced %.6g s):\n",
                    validate_untraced, validate_traced);
        for (const Metric &m : metrics)
            printMetric(m, "");

        if (!spans_path.empty()) {
            const std::string header =
                "{\"workload\":\"" + std::string(ctx.workload->name) +
                "\",\"seed\":" + std::to_string(seed) +
                ",\"nproc\":" + std::to_string(nproc) +
                ",\"threads\":" + std::to_string(threads) + "}";
            tally.check(tracer.write(spans_path, header),
                        "cannot write spans to " + spans_path);
            std::printf("spans written to %s\n", spans_path.c_str());
        }
    }

    std::printf("failed_ops_ratio %.6g (failed %llu / attempted %llu)\n",
                static_cast<double>(tally.failed) /
                    static_cast<double>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    if (ctx.server)
        ctx.server->stop();
    printResult(tally, metrics);
    return 0;
}
