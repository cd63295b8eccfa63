#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <future>
#include <stdexcept>
#include <thread>

#include "common/random.hpp"
#include "core/compressed_tensor.hpp"
#include "engine/session.hpp"
#include "llm/kv_cache.hpp"
#include "net/net_client.hpp"
#include "obs/exposition.hpp"
#include "simd/simd.hpp"

namespace perfbench {

using namespace bbs;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

const obs::MetricSnapshot *
findSeries(const std::vector<obs::MetricSnapshot> &all, std::string_view name,
           std::string_view labels = "")
{
    for (const auto &m : all)
        if (m.name == name && m.labels == labels)
            return &m;
    return nullptr;
}

double
counterOf(const std::vector<obs::MetricSnapshot> &all, std::string_view name,
          std::string_view labels = "")
{
    const auto *m = findSeries(all, name, labels);
    return m != nullptr ? static_cast<double>(m->counterValue) : 0.0;
}

double
counterDelta(const LiveCounters &before, const LiveCounters &after,
             std::string_view name, std::string_view labels = "")
{
    return counterOf(after.global, name, labels) -
           counterOf(before.global, name, labels);
}

/** Median wall time (µs) of @p reps calls of @p fn, one span each. */
template <typename F>
double
medianCallUs(SpanLog &spans, std::uint64_t parent, const std::string &name,
             int reps, F &&fn)
{
    std::vector<double> us;
    for (int r = 0; r < reps; ++r) {
        auto t0 = Clock::now();
        fn();
        auto t1 = Clock::now();
        spans.add(name, parent, t0, t1);
        us.push_back(microsBetween(t0, t1));
    }
    return percentileOf(us, 50.0);
}

/** Per-channel symmetric INT8 codes of He-initialised weights. */
Int8Tensor
quantisedCodes(std::int64_t rows, std::int64_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    Int8Tensor codes(Shape{rows, cols});
    std::vector<double> w(static_cast<std::size_t>(cols));
    const double sd = std::sqrt(2.0 / static_cast<double>(cols));
    for (std::int64_t r = 0; r < rows; ++r) {
        double amax = 1e-12;
        for (auto &v : w) {
            v = rng.gaussian(0.0, sd);
            amax = std::max(amax, std::fabs(v));
        }
        for (std::int64_t c = 0; c < cols; ++c)
            codes.at(r, c) = static_cast<std::int8_t>(
                std::lround(w[static_cast<std::size_t>(c)] / amax * 127.0));
    }
    return codes;
}

Int8Tensor
randomActs(std::int64_t rows, std::int64_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    Int8Tensor a(Shape{rows, cols});
    for (std::int64_t i = 0; i < a.numel(); ++i)
        a.flat(i) = static_cast<std::int8_t>(rng.uniformInt(-127, 127));
    return a;
}

/** The matmul shape each workload centres on. */
struct EngineShape
{
    std::int64_t rows, cols;
    int targetColumns;
};

EngineShape
engineShapeFor(const std::string &workload)
{
    if (workload == "llm_net") {
        auto c = lmConfig(0);
        return {c.dFf, c.dModel, c.targetColumns}; // MLP up-projection
    }
    const MlpShape &ffn = mlpShapes()[1]; // BERT FFN up-projection
    return {ffn.hidden, ffn.in, kTargetColumns};
}

// ------------------------------------------------------------ serve

/** In-process submitAsync round trips at the wire phase's concurrency. */
std::vector<double>
replaySubmitAsync(System &sys, const Inputs &in, SpanLog &spans,
                  std::uint64_t parent)
{
    constexpr std::int64_t kPerClient = 512;
    std::mutex merge;
    std::vector<double> all;
    auto client = [&](int conn) {
        Rng rng(in.seed * 977 + static_cast<std::uint64_t>(conn));
        std::mutex m;
        std::condition_variable cv;
        std::deque<std::pair<std::uint64_t, Clock::time_point>> done;
        std::vector<Clock::time_point> sentAt(kMlpWindow);
        std::vector<double> mine;
        std::int64_t sent = 0;
        int inflight = 0;
        auto sendOne = [&](int slot) {
            std::size_t model = static_cast<std::size_t>(sent % 2);
            auto idx = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(in.mlp[model].size()) - 1));
            sentAt[static_cast<std::size_t>(slot)] = Clock::now();
            ++sent;
            ++inflight;
            auto id = static_cast<std::uint64_t>(slot);
            sys.server->submitAsync(
                sys.servedNames[model], in.mlp[model][idx], 0,
                [&, id](InferenceResponse &&) {
                    auto now = Clock::now();
                    std::lock_guard<std::mutex> lock(m);
                    done.emplace_back(id, now);
                    cv.notify_one();
                });
        };
        for (int s = 0; s < kMlpWindow; ++s)
            sendOne(s);
        while (inflight > 0) {
            std::pair<std::uint64_t, Clock::time_point> d;
            {
                std::unique_lock<std::mutex> lock(m);
                cv.wait(lock, [&] { return !done.empty(); });
                d = done.front();
                done.pop_front();
            }
            --inflight;
            auto slot = static_cast<std::size_t>(d.first);
            mine.push_back(microsBetween(sentAt[slot], d.second));
            spans.add("serve.submitAsync", parent, sentAt[slot], d.second,
                      (static_cast<std::uint64_t>(conn) << 48) | sent);
            if (sent < kPerClient)
                sendOne(static_cast<int>(slot));
        }
        std::lock_guard<std::mutex> lock(merge);
        all.insert(all.end(), mine.begin(), mine.end());
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c)
        threads.emplace_back(client, c);
    for (auto &t : threads)
        t.join();
    return all;
}

/**
 * One client, one request in flight, the small model only: the wire
 * round trip and the in-process submitAsync round trip of the same
 * inputs. Under the closed loop both latencies are mostly queueing, so
 * their difference there says little about the net layer itself.
 */
std::pair<std::vector<double>, std::vector<double>>
replayUnitRoundTrips(System &sys, const Inputs &in, SpanLog &spans,
                     std::uint64_t parent)
{
    constexpr int kRequests = 400;
    const auto &pool = in.mlp[0];
    const std::string &model = sys.servedNames[0];
    std::vector<double> wire, inproc;
    net::NetClient cl;
    if (!cl.connect("127.0.0.1", sys.port(), 60000))
        throw std::runtime_error("connect to the net server failed");
    for (int i = 0; i < kRequests; ++i) {
        const auto &x = pool[static_cast<std::size_t>(i) % pool.size()];
        auto t0 = Clock::now();
        auto resp = cl.request(model, x, 0, static_cast<std::uint64_t>(i));
        auto t1 = Clock::now();
        if (!resp || resp->status != static_cast<std::uint8_t>(ServeStatus::Ok))
            throw std::runtime_error("unit wire request failed");
        spans.add("net.request_unit", parent, t0, t1, i);
        wire.push_back(microsBetween(t0, t1));

        std::promise<void> done;
        auto t2 = Clock::now();
        sys.server->submitAsync(model, x, 0, [&](InferenceResponse &&) {
            done.set_value();
        });
        done.get_future().wait();
        auto t3 = Clock::now();
        spans.add("serve.submitAsync_unit", parent, t2, t3, i);
        inproc.push_back(microsBetween(t2, t3));
    }
    return {wire, inproc};
}

// -------------------------------------------------------------- llm

struct StepRecord
{
    std::int64_t decodeRows = 0, prefillRows = 0;
    double us = 0.0;
};

/**
 * TransformerModel::forward driven directly, with the rows formed by the
 * scheduler's documented policy: decode rows first, then round-robin
 * prefill chunks into the remaining row budget, at least one chunk. With
 * equal step compositions, stepOnce minus this loop's forward is the
 * scheduler's own cost.
 */
class DirectLoop
{
  public:
    DirectLoop(const llm::TransformerModel &lm, std::int64_t maxActive)
        : lm_(lm), maxActive_(maxActive)
    {
    }

    void
    submit(const std::vector<std::int32_t> &prompt)
    {
        auto s = std::make_unique<Seq>();
        s->prompt = &prompt;
        pending_.push_back(std::move(s));
    }

    /** One step; false when nothing is left. @p usedRatio: live tokens
     *  over reserved KV capacity of the active sequences. */
    bool
    step(StepRecord &rec, double &usedRatio, SpanLog &spans,
         std::uint64_t parent)
    {
        while (static_cast<std::int64_t>(active_.size()) < maxActive_ &&
               !pending_.empty()) {
            auto s = std::move(pending_.front());
            pending_.pop_front();
            s->cache = lm_.makeCache(
                static_cast<std::int64_t>(s->prompt->size()) + kGenBudget);
            active_.push_back(std::move(s));
        }
        if (active_.empty())
            return false;
        rows_.clear();
        rowSeq_.clear();
        for (auto &sp : active_) {
            if (!sp->decoding)
                continue;
            llm::StepRow r;
            r.cache = sp->cache.get();
            r.token = sp->nextInput;
            r.pos = sp->cache->length();
            r.wantLogits = true;
            rows_.push_back(r);
            rowSeq_.push_back(sp.get());
        }
        const auto decodeRows = static_cast<std::int64_t>(rows_.size());
        std::int64_t budget =
            std::max(kMaxStepRows - decodeRows, std::int64_t{0});
        const bool anyPrefill =
            std::any_of(active_.begin(), active_.end(),
                        [](const auto &s) { return !s->decoding; });
        if (anyPrefill && budget == 0)
            budget = kChunk;
        const auto nActive = static_cast<std::int64_t>(active_.size());
        for (std::int64_t scan = 0; scan < nActive && budget > 0; ++scan) {
            Seq &s = *active_[static_cast<std::size_t>((cursor_ + scan) %
                                                       nActive)];
            if (s.decoding)
                continue;
            const auto len = static_cast<std::int64_t>(s.prompt->size());
            std::int64_t chunk = std::min({kChunk, budget, len - s.prefillPos});
            for (std::int64_t i = 0; i < chunk; ++i) {
                std::int64_t p = s.prefillPos + i;
                llm::StepRow r;
                r.cache = s.cache.get();
                r.token = (*s.prompt)[static_cast<std::size_t>(p)];
                r.pos = p;
                r.wantLogits = p + 1 == len;
                rows_.push_back(r);
                rowSeq_.push_back(&s);
            }
            budget -= chunk;
        }
        cursor_ = (cursor_ + 1) % nActive;
        double live = 0.0, reserved = 0.0;
        for (auto &sp : active_) {
            live += static_cast<double>(sp->cache->length());
            reserved += static_cast<double>(sp->cache->capacity());
        }
        usedRatio = live / reserved;

        auto t0 = Clock::now();
        lm_.forward({rows_.data(), rows_.size()}, ws_);
        auto t1 = Clock::now();
        spans.add("llm.forward", parent, t0, t1);
        rec = {decodeRows,
               static_cast<std::int64_t>(rows_.size()) - decodeRows,
               microsBetween(t0, t1)};

        for (std::size_t i = 0; i < rows_.size(); ++i) {
            Seq &s = *rowSeq_[i];
            if (!s.decoding)
                ++s.prefillPos;
            if (!rows_[i].wantLogits)
                continue;
            s.decoding = true;
            ++s.produced;
            s.nextInput = rows_[i].next;
            s.done = s.produced == kGenBudget;
        }
        active_.erase(std::remove_if(active_.begin(), active_.end(),
                                     [](const auto &s) { return s->done; }),
                      active_.end());
        return true;
    }

  private:
    static constexpr std::int64_t kMaxStepRows = 32, kChunk = 16;
    struct Seq
    {
        const std::vector<std::int32_t> *prompt = nullptr;
        std::int64_t prefillPos = 0, produced = 0;
        std::int32_t nextInput = 0;
        bool decoding = false, done = false;
        std::unique_ptr<llm::KvCache> cache;
    };
    const llm::TransformerModel &lm_;
    std::int64_t maxActive_;
    std::deque<std::unique_ptr<Seq>> pending_;
    std::vector<std::unique_ptr<Seq>> active_;
    std::int64_t cursor_ = 0;
    llm::TransformerModel::Workspace ws_;
    std::vector<llm::StepRow> rows_;
    std::vector<Seq *> rowSeq_;
};

struct GenReplay
{
    std::vector<StepRecord> sched, direct;
    double usedRatioMean = 0.0;
    bool sameSteps = true;
};

/**
 * The replay prompts, in waves of the live run's concurrency, through a
 * hand-stepped GenerationScheduler and through DirectLoop in lockstep
 * (one stepOnce, then the matching forward), so both see the same
 * machine state.
 */
GenReplay
replayGeneration(System &sys, const Inputs &in, SpanLog &spans,
                 std::uint64_t parent)
{
    serve::GenerationConfig gc;
    gc.maxStepRows = 32;
    gc.maxActiveSeqs = kConnections * kStreamsPerConn;
    gc.prefillChunk = 16;
    gc.workers = 0;
    obs::Registry reg;
    serve::GenerationScheduler sched(*sys.lm, gc, &reg);
    DirectLoop direct(*sys.lm, gc.maxActiveSeqs);
    auto &decode = reg.counter("bbs_llm_decode_rows_total");
    auto &prefill = reg.counter("bbs_llm_prefill_rows_total");
    GenReplay out;
    double ratioSum = 0.0;
    const auto wave = static_cast<std::size_t>(gc.maxActiveSeqs);
    for (std::size_t first = 0; first < in.prompts.size(); first += wave) {
        for (std::size_t p = first;
             p < std::min(first + wave, in.prompts.size()); ++p) {
            sched.submit(in.prompts[p], kGenBudget,
                         [](const serve::StreamToken &) {});
            direct.submit(in.prompts[p]);
        }
        while (true) {
            auto d0 = decode.value(), p0 = prefill.value();
            auto t0 = Clock::now();
            bool did = sched.stepOnce();
            auto t1 = Clock::now();
            StepRecord rec;
            double ratio = 0.0;
            bool didDirect = direct.step(rec, ratio, spans, parent);
            if (did != didDirect) {
                out.sameSteps = false;
                return out;
            }
            if (!did)
                break;
            spans.add("serve.stepOnce", parent, t0, t1);
            StepRecord srec{static_cast<std::int64_t>(decode.value() - d0),
                            static_cast<std::int64_t>(prefill.value() - p0),
                            microsBetween(t0, t1)};
            out.sameSteps = out.sameSteps &&
                            srec.decodeRows == rec.decodeRows &&
                            srec.prefillRows == rec.prefillRows;
            out.sched.push_back(srec);
            out.direct.push_back(rec);
            ratioSum += ratio;
        }
    }
    if (!out.direct.empty())
        out.usedRatioMean = ratioSum / static_cast<double>(out.direct.size());
    return out;
}

/** One KvCache::append (one layer, one token) per call. */
double
replayKvAppend(System &sys, SpanLog &spans, std::uint64_t parent)
{
    const auto cfg = sys.lm->config();
    auto cache = sys.lm->makeCache(cfg.maxSeq);
    const auto width = static_cast<std::size_t>(cfg.dModel);
    Rng rng(99);
    std::vector<std::int8_t> k(width), v(width);
    for (auto &x : k)
        x = static_cast<std::int8_t>(rng.uniformInt(-127, 127));
    for (auto &x : v)
        x = static_cast<std::int8_t>(rng.uniformInt(-127, 127));
    std::vector<double> us;
    for (std::int64_t pos = 0; pos < cfg.maxSeq; ++pos) {
        for (std::int64_t layer = 0; layer < cfg.nLayers; ++layer) {
            auto t0 = Clock::now();
            cache->append(layer, pos, k, 0.01f, v, 0.01f);
            auto t1 = Clock::now();
            spans.add("llm.kv_append", parent, t0, t1);
            us.push_back(microsBetween(t0, t1));
        }
        cache->commit(pos + 1);
    }
    return percentileOf(us, 50.0);
}

double
medianWhere(const std::vector<StepRecord> &steps, bool prefill)
{
    std::vector<double> us;
    for (const auto &s : steps)
        if ((s.prefillRows > 0) == prefill)
            us.push_back(s.us);
    return us.empty() ? 0.0 : percentileOf(us, 50.0);
}

// ------------------------------------------------------------ engine

struct RooflineRow
{
    std::string name;
    double us = 0.0, weightBytes = 0.0, popcountWords = 0.0;
};

} // namespace

LiveCounters
LiveCounters::read(const System &sys)
{
    return {sys.server->metrics().snapshot(),
            obs::Registry::global().snapshot()};
}

MetricSet
endToEndMetrics(const std::vector<double> &setupS, const MlpResult &mlp,
                const GenResult &gen, const DeployResult &deploy)
{
    MetricSet m;
    m.set("setup_s", "s", percentileOf(setupS, 50.0));
    m.set("rss_mib", "MiB", peakRssMib());
    const double okRequests =
        static_cast<double>(mlp.attempted - mlp.failed);
    m.set("req_per_s", "req/s", okRequests / mlp.elapsedS);
    m.set("latency_p50_ms", "ms", tailOf(mlp.latencyUs, 50, "latency") / 1e3);
    m.set("latency_p99_ms", "ms", tailOf(mlp.latencyUs, 99, "latency") / 1e3);
    m.set("tok_per_s", "tok/s", static_cast<double>(gen.tokens) / gen.elapsedS);
    m.set("ttft_p50_ms", "ms", tailOf(gen.ttftUs, 50, "ttft") / 1e3);
    m.set("ttft_p90_ms", "ms", tailOf(gen.ttftUs, 90, "ttft") / 1e3);
    m.set("itl_p50_ms", "ms", tailOf(gen.itlUs, 50, "itl") / 1e3);
    m.set("itl_p99_ms", "ms", tailOf(gen.itlUs, 99, "itl") / 1e3);

    double weights = 0.0, writeSideS = 0.0, bytes = 0.0;
    std::vector<double> loadMs;
    for (const DeployStep &s : deploy.steps) {
        weights += static_cast<double>(s.weights);
        writeSideS += s.compressS + s.writeS;
        bytes += static_cast<double>(s.containerBytes);
        loadMs.push_back((s.openS + s.verifyS + s.mapS) * 1e3);
    }
    if (deploy.steps.empty())
        throw std::runtime_error("no container was deployed");
    m.set("compress_mweights_per_s", "Mweights/s", weights / writeSideS / 1e6);
    m.set("load_ms", "ms", percentileOf(loadMs, 50.0));
    m.set("container_mib", "MiB",
          bytes / static_cast<double>(deploy.rounds) / kMiB);
    return m;
}

void
printMetricTable(const char *title, const MetricSet &metrics)
{
    std::cout << "-- " << title << '\n';
    for (const Metric &m : metrics.all())
        std::cout << "  " << std::left << std::setw(40) << m.name
                  << std::right << std::setw(16) << std::setprecision(6)
                  << m.value << ' ' << m.unit << '\n';
}

void
printLayerTable(const SpanLog &log)
{
    // A span's self time is its duration minus the part of it that its
    // child spans cover (children of one span may overlap in time).
    const auto spans = log.spans();
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size() + 1);
    for (const auto &s : spans)
        if (s.parent != 0)
            children[s.parent].emplace_back(s.startUs, s.endUs);
    struct Agg
    {
        std::vector<double> us;
        double selfSum = 0.0;
    };
    std::map<std::string, Agg> by;
    for (const auto &s : spans) {
        auto &kids = children[s.id];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0, reach = s.startUs;
        for (auto [b, e] : kids) {
            b = std::max(b, reach);
            e = std::min(e, s.endUs);
            if (e > b) {
                covered += e - b;
                reach = e;
            }
        }
        Agg &a = by[s.name];
        a.us.push_back(s.endUs - s.startUs);
        a.selfSum += s.endUs - s.startUs - covered;
    }
    std::cout << "-- spans by name (self = span minus the time its child "
                 "spans cover)\n"
              << "  " << std::left << std::setw(44) << "span" << std::right
              << std::setw(9) << "calls" << std::setw(14) << "p50 us"
              << std::setw(14) << "mean self us" << '\n';
    for (const auto &[name, a] : by)
        std::cout << "  " << std::left << std::setw(44) << name << std::right
                  << std::setw(9) << a.us.size() << std::setw(14)
                  << std::setprecision(5) << percentileOf(a.us, 50.0)
                  << std::setw(14)
                  << a.selfSum / static_cast<double>(a.us.size()) << '\n';
}

MetricSet
runReplays(const ReplayContext &ctx, SpanLog &spans, std::uint64_t root)
{
    MetricSet m;
    System &sys = ctx.sys;
    const auto &srv = ctx.after.server;

    // ---- net: wire round trip minus the in-process round trip.
    std::vector<double> inproc;
    std::pair<std::vector<double>, std::vector<double>> unit;
    {
        ScopedSpan s(spans, "replay.serve", root);
        inproc = replaySubmitAsync(sys, ctx.in, spans, s.id());
        unit = replayUnitRoundTrips(sys, ctx.in, spans, s.id());
    }
    const double unitWire = percentileOf(unit.first, 50.0);
    const double unitServe = percentileOf(unit.second, 50.0);
    const double serveP50 = percentileOf(inproc, 50.0);
    m.set("net.self_us", "us", unitWire - unitServe);
    m.set("net.frames_in", "count", counterOf(srv, "bbs_net_frames_in_total"));
    m.set("net.chunks_out", "count",
          counterOf(srv, "bbs_net_stream_chunks_out_total"));
    m.set("net.protocol_errors", "count",
          counterOf(srv, "bbs_net_protocol_errors_total"));

    // ---- serve (one-shot requests): the server's own series.
    m.set("serve.rtt_p50_us", "us", serveP50);
    const auto *wait = findSeries(srv, "bbs_serve_queue_wait_us");
    const auto *rows = findSeries(srv, "bbs_serve_batch_rows");
    if (wait == nullptr || rows == nullptr || rows->count == 0)
        throw std::runtime_error("serving series missing from the scrape");
    m.set("serve.queue_wait_p50_us", "us", obs::histogramQuantile(*wait, 0.5));
    const double rowsMean = rows->sum / static_cast<double>(rows->count);
    m.set("serve.batch_rows_mean", "rows", rowsMean);
    m.set("serve.batches", "count", counterOf(srv, "bbs_serve_batches_total"));
    const auto bmed = std::max<std::int64_t>(
        1, std::llround(obs::histogramQuantile(*rows, 0.5)));

    // ---- serve (generation) and llm.
    GenReplay gen;
    double appendUs = 0.0;
    {
        ScopedSpan s(spans, "replay.generation", root);
        gen = replayGeneration(sys, ctx.in, spans, s.id());
        appendUs = replayKvAppend(sys, spans, s.id());
    }
    if (!gen.sameSteps)
        throw std::runtime_error("the scheduler and the direct replay formed "
                                 "different steps");
    std::vector<double> stepUs, overheadUs;
    for (std::size_t i = 0; i < gen.sched.size(); ++i) {
        stepUs.push_back(gen.sched[i].us);
        overheadUs.push_back(gen.sched[i].us - gen.direct[i].us);
    }
    // Paired per-step differences: the median resolves the scheduler's
    // cost only down to the spread of the forward times themselves.
    m.set("serve.gen_step_us", "us", meanOf(stepUs));
    m.set("serve.gen_overhead_us", "us", percentileOf(overheadUs, 50.0));
    const double decodeRows = counterOf(srv, "bbs_llm_decode_rows_total");
    const double prefillRows = counterOf(srv, "bbs_llm_prefill_rows_total");
    m.set("serve.rows_per_step_mean", "rows",
          (decodeRows + prefillRows) /
              std::max(1.0, counterOf(srv, "bbs_llm_steps_total")));

    // ---- nn: the served networks at batch 1 and the observed median.
    {
        ScopedSpan s(spans, "replay.nn", root);
        const InferencePolicy policy{engine::Calibration::PerRow,
                                     engine::PlanKind::Auto};
        for (std::size_t i = 0; i < mlpShapes().size(); ++i) {
            auto net = sys.mlp(i);
            const auto &pool = ctx.in.mlp[i];
            for (auto [b, suffix] :
                 {std::pair<std::int64_t, const char *>{1, ".b1"},
                  {bmed, ".bmed"}}) {
                Batch x(Shape{b, mlpShapes()[i].in});
                for (std::int64_t r = 0; r < b; ++r)
                    for (std::int64_t c = 0; c < mlpShapes()[i].in; ++c)
                        x.at(r, c) = pool[static_cast<std::size_t>(r) %
                                          pool.size()]
                                         [static_cast<std::size_t>(c)];
                Batch y;
                net->forwardInto(x, policy, y); // warm the thread scratch
                double us = medianCallUs(
                    spans, s.id(), "nn.forwardInto", 30,
                    [&] { net->forwardInto(x, policy, y); });
                m.set(std::string("nn.forward_us.") + mlpShapes()[i].label +
                          suffix,
                      "us", us);
            }
        }
    }

    // llm numbers sit after nn so the table reads wire-inward.
    m.set("llm.decode_step_us", "us", medianWhere(gen.direct, false));
    m.set("llm.prefill_step_us", "us", medianWhere(gen.direct, true));
    m.set("llm.kv_append_us", "us", appendUs);
    m.set("llm.kv_resident_mib", "MiB",
          static_cast<double>(ctx.gen.kvPeakBytes) / kMiB);
    m.set("llm.kv_used_ratio", "ratio", gen.usedRatioMean);
    m.set("llm.decode_rows", "count", decodeRows);
    m.set("llm.prefill_rows", "count", prefillRows);

    // ---- engine, simd, core at the workload's matmul shape.
    const EngineShape shape = engineShapeFor(ctx.workload);
    const Int8Tensor codes =
        quantisedCodes(shape.rows, shape.cols, ctx.in.seed + 5);
    const engine::Session &session = engine::defaultSession();
    std::vector<RooflineRow> roofline;
    double simdGwords = 0.0;
    {
        ScopedSpan s(spans, "replay.engine", root);
        engine::PackOptions opts;
        opts.groupSize = kGroupSize;
        opts.targetColumns = shape.targetColumns;
        engine::PackedOperand compressed = session.pack(codes, opts);
        engine::PackedOperand dense =
            session.pack(compressed.compressedRows().decompress());
        engine::MatmulPlan cplan = session.plan(compressed, {32});
        engine::MatmulPlan dplan = session.plan(dense, {32});
        const auto &planes = compressed.compressedRows();
        const double groups =
            static_cast<double>(planes.rows() * planes.groupsPerRow());
        const double colWords =
            static_cast<double>((shape.cols + 63) / 64);
        for (engine::PlanKind kind :
             {engine::PlanKind::PerDot, engine::PlanKind::TiledBitSerial,
              engine::PlanKind::CompressedBatched}) {
            const bool tiled = kind == engine::PlanKind::TiledBitSerial;
            const engine::MatmulPlan &plan = tiled ? dplan : cplan;
            for (std::int64_t b : {1, 8, 32}) {
                Int8Tensor acts = randomActs(b, shape.cols, 11 + b);
                Int32Tensor out;
                plan.runAs(kind, acts, out); // warm
                RooflineRow row;
                row.name = std::string(engine::planKindName(kind)) + ".b" +
                           std::to_string(b);
                row.us = medianCallUs(spans, s.id(),
                                      "engine.matmul." + row.name, 15,
                                      [&] { plan.runAs(kind, acts, out); });
                // Computed from operand sizes, not measured traffic.
                row.weightBytes =
                    tiled ? 8.0 * static_cast<double>(shape.rows) *
                                colWords * 8.0
                          : groups * (sizeof(PackedGroup) + 1.0 + 4.0);
                row.popcountWords =
                    tiled ? static_cast<double>(b * shape.rows) * colWords *
                                64.0
                          : static_cast<double>(b) * groups *
                                planes.meanStoredBits() * 8.0;
                m.set("engine.matmul_us." + row.name, "us", row.us);
                roofline.push_back(row);
            }
        }
        for (const char *kind :
             {"per-dot", "tiled-bit-serial", "compressed-batched"})
            m.set(std::string("engine.plan_runs.") + kind, "count",
                  counterDelta(ctx.before, ctx.after,
                               "bbs_engine_plan_runs_total",
                               std::string("kind=\"") + kind + "\""));
        const std::string b1 =
            std::string(engine::planKindName(cplan.kindForBatch(1))) + ".b1";
        for (const auto &r : roofline) {
            if (r.name == b1)
                m.set("engine.weight_gb_per_s", "GB/s",
                      r.weightBytes / r.us / 1e3);
            if (r.name == "compressed-batched.b32")
                m.set("engine.popcount_gwords_per_s", "Gwords/s",
                      r.popcountWords / r.us / 1e3);
        }
        CompressedTensor ct = CompressedTensor::compress(
            codes, kGroupSize, shape.targetColumns,
            PruneStrategy::ZeroPointShifting);
        double packUs = medianCallUs(spans, s.id(), "engine.pack", 5, [&] {
            engine::PackedOperand p = session.pack(ct);
        });
        m.set("engine.pack_mweights_per_s", "Mweights/s",
              static_cast<double>(codes.numel()) / packUs);

        // simd: the stream ceiling, over a working set four times L2.
        constexpr std::int64_t kWords = 1 << 20; // 8 MiB per operand
        std::vector<std::uint64_t> a(kWords), w(kWords);
        Rng rng(3);
        for (std::int64_t i = 0; i < kWords; ++i) {
            a[static_cast<std::size_t>(i)] = rng.next();
            w[static_cast<std::size_t>(i)] = rng.next();
        }
        std::int64_t sink = 0;
        double streamUs = medianCallUs(
            spans, s.id(), "simd.andPopcountAccumulate", 21, [&] {
                sink += simdKernels().andPopcountAccumulate(a.data(), w.data(),
                                                            kWords);
            });
        if (sink < 0)
            std::cout << "unreachable\n";
        simdGwords = static_cast<double>(kWords) / streamUs / 1e3;
        m.set("simd.stream_gwords_per_s", "Gwords/s", simdGwords);

        for (auto [strategy, label] :
             {std::pair{PruneStrategy::ZeroPointShifting, "zps"},
              std::pair{PruneStrategy::RoundedAveraging, "ra"}}) {
            double us = medianCallUs(
                spans, s.id(), std::string("core.compress.") + label, 3, [&] {
                    CompressedTensor t = CompressedTensor::compress(
                        codes, kGroupSize, shape.targetColumns, strategy);
                });
            m.set(std::string("core.compress_mweights_per_s.") + label,
                  "Mweights/s", static_cast<double>(codes.numel()) / us);
        }
        m.set("core.stored_bits_mean", "bits",
              ctx.workload == "compress_store" ? ctx.deploy.storedBitsMean
                                               : planes.meanStoredBits());
    }

    // ---- store: the deploy phase's steps.
    auto medianMs = [&](double DeployStep::*field) {
        std::vector<double> ms;
        for (const auto &st : ctx.deploy.steps)
            ms.push_back(st.*field * 1e3);
        return percentileOf(ms, 50.0);
    };
    m.set("store.write_ms", "ms", medianMs(&DeployStep::writeS));
    m.set("store.open_ms", "ms", medianMs(&DeployStep::openS));
    m.set("store.verify_ms", "ms", medianMs(&DeployStep::verifyS));
    m.set("store.map_ms", "ms", medianMs(&DeployStep::mapS));
    m.set("store.first_forward_ms", "ms", medianMs(&DeployStep::firstForwardS));

    // ---- common worker pool over the live phases.
    const double jobs = counterDelta(ctx.before, ctx.after,
                                     "bbs_pool_jobs_total");
    m.set("pool.jobs", "count", jobs);
    m.set("pool.fallback_ratio", "ratio",
          jobs > 0 ? counterDelta(ctx.before, ctx.after,
                                  "bbs_pool_fallback_total") /
                         jobs
                   : 0.0);

    // ---- tables.
    printMetricTable("per-layer", m);
    std::cout << "-- layer chain, one " << mlpShapes()[0].label
              << " request alone (p50, us): wire " << unitWire
              << " = net self " << unitWire - unitServe
              << " + in-process round trip " << unitServe << '\n'
              << "-- closed loop at " << kConnections << " x " << kMlpWindow
              << " in flight (p50, us): wire "
              << percentileOf(ctx.mlp.latencyUs, 50.0)
              << ", in-process " << serveP50 << '\n';
    std::cout << "-- matmul roofline at [" << shape.rows << " x "
              << shape.cols << "] (weight bytes and popcount words are "
              << "computed from operand sizes)\n"
              << "  " << std::left << std::setw(26) << "kind.batch"
              << std::right << std::setw(11) << "us" << std::setw(14)
              << "weight MB" << std::setw(10) << "GB/s" << std::setw(14)
              << "Mwords" << std::setw(11) << "Gwords/s" << std::setw(12)
              << "of stream" << '\n';
    for (const auto &r : roofline) {
        double gwords = r.popcountWords / r.us / 1e3;
        std::cout << "  " << std::left << std::setw(26) << r.name << std::right
                  << std::setprecision(4) << std::setw(11) << r.us
                  << std::setw(14) << r.weightBytes / 1e6 << std::setw(10)
                  << r.weightBytes / r.us / 1e3 << std::setw(14)
                  << r.popcountWords / 1e6 << std::setw(11) << gwords
                  << std::setw(12) << gwords / simdGwords << '\n';
    }
    return m;
}

} // namespace perfbench
