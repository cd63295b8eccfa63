#include "system.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "checks.hpp"
#include "common/parallel.hpp"
#include "common/random.hpp"
#include "models/model_zoo.hpp"
#include "net/net_client.hpp"
#include "nn/layers.hpp"
#include "nn/network.hpp"
#include "store/container.hpp"

namespace perfbench {

using namespace bbs;

namespace {

constexpr std::size_t kMlpPool = 64; ///< distinct inputs per MLP
constexpr std::size_t kPrompts = 32; ///< distinct prompts
constexpr std::int64_t kMinPrompt = 4, kMaxPrompt = 176;
constexpr const char *kLmName = "lm";
constexpr std::int64_t kMaxZooWeights = 1200000;

Int8Network
buildMlp(const MlpShape &s, std::uint64_t seed)
{
    Rng rng(seed);
    Network net;
    net.add(std::make_unique<Dense>(s.in, s.hidden, rng));
    if (s.gelu)
        net.add(std::make_unique<GeluLayer>());
    else
        net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<Dense>(s.hidden, s.out, rng));
    return Int8Network::fromNetwork(net, kGroupSize, kTargetColumns,
                                    PruneStrategy::ZeroPointShifting);
}

Batch
rowBatch(const std::vector<float> &x)
{
    Batch b(Shape{1, static_cast<std::int64_t>(x.size())});
    for (std::size_t i = 0; i < x.size(); ++i)
        b.flat(static_cast<std::int64_t>(i)) = x[i];
    return b;
}

std::vector<float>
rowOf(const Batch &b)
{
    return std::vector<float>(b.data().begin(), b.data().end());
}

/** Merge per-client results under one lock at the end of a client. */
template <typename R> struct Collector
{
    std::mutex mutex;
    R result;
};

/** Run @p client(c) on one thread per connection; rethrow the first
 *  client failure after all have joined. */
template <typename F>
void
runClients(const char *what, F &&client)
{
    std::vector<std::thread> threads;
    std::vector<std::string> errors(kConnections);
    for (int c = 0; c < kConnections; ++c)
        threads.emplace_back([&, c] {
            try {
                client(c);
            } catch (const std::exception &e) {
                errors[static_cast<std::size_t>(c)] = e.what();
            }
        });
    for (auto &t : threads)
        t.join();
    for (const auto &e : errors)
        if (!e.empty())
            throw std::runtime_error(std::string(what) + " client: " + e);
}

} // namespace

const std::vector<MlpShape> &
mlpShapes()
{
    static const std::vector<MlpShape> shapes = {
        {"cls", 256, 512, 16, false},
        {"ffn", 768, 3072, 768, true},
    };
    return shapes;
}

llm::TransformerConfig
lmConfig(std::uint64_t seed)
{
    llm::TransformerConfig cfg;
    cfg.dModel = 256;
    cfg.nHeads = 4;
    cfg.dFf = 768;
    cfg.nLayers = 3;
    cfg.vocab = 512;
    cfg.maxSeq = kMaxPrompt + kGenBudget;
    cfg.groupSize = kGroupSize;
    cfg.targetColumns = 3;
    cfg.expectedBatch = 32;
    cfg.seed = seed;
    return cfg;
}

const std::vector<ZooLayer> &
zooLayers()
{
    // Distinct weight shapes of a vision transformer, a BERT encoder and
    // a CNN from the model zoo (convolutions flattened to [K, C*R*S]), up
    // to 1.2M weights each: the 2.4M-weight BERT FFN shape is already
    // served by the mlp phase.
    static const std::vector<ZooLayer> layers = [] {
        std::vector<ZooLayer> out;
        std::set<std::pair<std::int64_t, std::int64_t>> seen;
        for (const ModelDesc &m :
             {buildViTSmall(), buildBertMrpc(), buildResNet34()})
            for (const LayerDesc &l : m.layers) {
                std::int64_t rows = l.weightShape.dim(0);
                std::int64_t cols = l.weightCount() / rows;
                if (cols < kGroupSize || rows * cols > kMaxZooWeights ||
                    !seen.insert({rows, cols}).second)
                    continue;
                out.push_back({m.name + "." + l.name, rows, cols});
            }
        return out;
    }();
    return layers;
}

Inputs
makeInputs(std::uint64_t seed)
{
    Inputs in;
    in.seed = seed;
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    for (const MlpShape &s : mlpShapes()) {
        std::vector<std::vector<float>> pool(kMlpPool);
        for (auto &x : pool) {
            x.resize(static_cast<std::size_t>(s.in));
            for (float &v : x)
                v = static_cast<float>(rng.uniformReal(-1.0, 1.0));
        }
        in.mlp.push_back(std::move(pool));
    }
    // Prompt lengths are part of the workload, not of the seed: prompt i
    // takes the midpoint of the i-th of kPrompts equal slices of a
    // log-uniform range, and a fixed shuffle deals each connection a mix
    // of short and long prompts. The seed sets the tokens. A seed-drawn
    // length mix would move TTFT from seed to seed by more than a change
    // worth detecting.
    const std::int64_t vocab = lmConfig(seed).vocab;
    const double lo = std::log(static_cast<double>(kMinPrompt));
    const double hi = std::log(static_cast<double>(kMaxPrompt));
    std::vector<std::size_t> order(kPrompts);
    for (std::size_t i = 0; i < kPrompts; ++i)
        order[i] = i;
    Rng fixed(0x5eed);
    fixed.shuffle(order);
    for (std::size_t i : order) {
        double u = (static_cast<double>(i) + 0.5) /
                   static_cast<double>(kPrompts);
        auto len = static_cast<std::int64_t>(
            std::lround(std::exp(lo + u * (hi - lo))));
        std::vector<std::int32_t> p(static_cast<std::size_t>(len));
        for (auto &t : p)
            t = static_cast<std::int32_t>(rng.uniformInt(0, vocab - 1));
        in.prompts.push_back(std::move(p));
    }
    return in;
}

System::System(std::uint64_t seed)
{
    registry = std::make_shared<ModelRegistry>();
    ServerConfig sc;
    sc.maxBatch = 32;
    sc.maxDelayUs = 2000;
    sc.shards = 2;
    sc.workers = 2;
    server = std::make_unique<InferenceServer>(registry, sc);
    // The two MLPs go to separate shards (route = hash of the name).
    for (std::size_t i = 0; i < mlpShapes().size(); ++i) {
        std::string name = mlpShapes()[i].label;
        for (int suffix = 1;
             i > 0 && server->queues().indexFor(name) ==
                          server->queues().indexFor(servedNames[0]);
             ++suffix)
            name = std::string(mlpShapes()[i].label) + std::to_string(suffix);
        registry->add(name, buildMlp(mlpShapes()[i], seed + 17 * (i + 1)));
        servedNames.push_back(name);
    }

    lm = std::make_unique<llm::TransformerModel>(lmConfig(seed));
    serve::GenerationConfig gc;
    gc.maxStepRows = 32;
    gc.maxActiveSeqs = kConnections * kStreamsPerConn;
    gc.prefillChunk = 16;
    gc.defaultMaxNewTokens = kGenBudget;
    gc.workers = 1;
    gen = std::make_unique<serve::GenerationScheduler>(*lm, gc,
                                                       &server->metrics());
    net = std::make_unique<net::NetServer>(*server);
    net->attachGeneration(kLmName, gen.get());
    net->start();
}

System::~System()
{
    net->stop();
    gen->stop();
    server->stop();
}

std::shared_ptr<const Int8Network>
System::mlp(std::size_t i) const
{
    return registry->find(servedNames[i]);
}

Oracles
computeOracles(const System &sys, const Inputs &in)
{
    // The references run one per client thread with the engine's
    // intra-op parallelism off (batch-1 work gains little from it), then
    // the thread cap is restored for the measured phases.
    Oracles o;
    const InferencePolicy alone{engine::Calibration::PerRow,
                                engine::PlanKind::Auto};
    for (const auto &pool : in.mlp)
        o.logits.emplace_back(pool.size());
    o.tokens.resize(in.prompts.size());
    setWorkerThreadCap(1);
    std::vector<std::thread> threads;
    for (int t = 0; t < kConnections; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t m = 0; m < in.mlp.size(); ++m) {
                auto net = sys.mlp(m);
                for (std::size_t i = static_cast<std::size_t>(t);
                     i < in.mlp[m].size(); i += kConnections)
                    o.logits[m][i] =
                        rowOf(net->forward(rowBatch(in.mlp[m][i]), alone));
            }
            for (std::size_t p = static_cast<std::size_t>(t);
                 p < in.prompts.size(); p += kConnections)
                o.tokens[p] = sys.lm->generateReference(in.prompts[p],
                                                        kGenBudget);
        });
    for (auto &th : threads)
        th.join();
    setWorkerThreadCap(0);
    return o;
}

MlpResult
runMlpPhase(System &sys, const Inputs &in, const Oracles &oracle,
            Budget budget, SpanLog &spans, std::uint64_t parent)
{
    Collector<MlpResult> all;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(budget.seconds));
    auto client = [&](int conn) {
        MlpResult mine;
        Rng rng(in.seed * 131 + static_cast<std::uint64_t>(conn) + 7);
        net::NetClient cl;
        struct Slot
        {
            std::uint64_t tag = 0;
            Clock::time_point sent;
            std::size_t model = 0, input = 0;
        };
        std::vector<Slot> slots(kMlpWindow);
        std::int64_t sent = 0;
        int inflight = 0;
        auto more = [&] {
            return budget.count > 0 ? sent < budget.count
                                    : Clock::now() < deadline;
        };
        net::RequestFrame req;
        auto sendOne = [&](int s) {
            Slot &slot = slots[static_cast<std::size_t>(s)];
            slot.model = static_cast<std::size_t>(sent % 2); // even mix
            slot.input = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(in.mlp[slot.model].size()) - 1));
            slot.tag = (static_cast<std::uint64_t>(conn) << 48) |
                       (static_cast<std::uint64_t>(sent) << 8) |
                       static_cast<std::uint64_t>(s);
            req.tag = slot.tag;
            req.model = sys.servedNames[slot.model];
            req.input = in.mlp[slot.model][slot.input];
            slot.sent = Clock::now();
            ++sent;
            ++mine.attempted;
            if (!cl.sendRequest(req))
                throw std::runtime_error("request send failed");
            ++inflight;
        };
        if (!cl.connect("127.0.0.1", sys.port(), 60000))
            throw std::runtime_error("connect to the net server failed");
        for (int s = 0; s < kMlpWindow && more(); ++s)
            sendOne(s);
        net::ResponseFrame resp;
        while (inflight > 0) {
            if (!cl.recvResponse(resp))
                throw std::runtime_error("response receive failed");
            auto now = Clock::now();
            --inflight;
            auto s = static_cast<std::size_t>(resp.tag & 0xff);
            if (s >= slots.size() || slots[s].tag != resp.tag) {
                mine.mismatch = "response with an unknown tag";
                break;
            }
            const Slot &slot = slots[s];
            spans.add("net.mlp_request", parent, slot.sent, now, resp.tag);
            if (resp.status != static_cast<std::uint8_t>(ServeStatus::Ok)) {
                ++mine.failed;
            } else {
                mine.latencyUs.push_back(microsBetween(slot.sent, now));
                std::string err =
                    checkLogits(resp.logits, oracle.logits[slot.model]
                                                          [slot.input]);
                if (err.empty() &&
                    resp.predicted != argmaxLogits(resp.logits))
                    err = "predicted class is not the argmax";
                if (!err.empty() && mine.mismatch.empty())
                    mine.mismatch = sys.servedNames[slot.model] + ": " + err;
            }
            if (more())
                sendOne(static_cast<int>(s));
        }
        std::lock_guard<std::mutex> lock(all.mutex);
        MlpResult &r = all.result;
        r.latencyUs.insert(r.latencyUs.end(), mine.latencyUs.begin(),
                           mine.latencyUs.end());
        r.attempted += mine.attempted;
        r.failed += mine.failed;
        if (r.mismatch.empty())
            r.mismatch = mine.mismatch;
    };
    runClients("mlp", client);
    all.result.elapsedS = secondsBetween(start, Clock::now());
    return std::move(all.result);
}

GenResult
runGenPhase(System &sys, const Inputs &in, const Oracles &oracle,
            Budget budget, SpanLog &spans, std::uint64_t parent)
{
    Collector<GenResult> all;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(budget.seconds));
    auto client = [&](int conn) {
        GenResult mine;
        net::NetClient cl;
        struct Stream
        {
            std::uint64_t tag = 0;
            std::size_t prompt = 0;
            Clock::time_point sent, last;
            std::vector<std::int32_t> tokens;
        };
        std::vector<Stream> streams(kStreamsPerConn);
        std::int64_t launched = 0;
        int active = 0;
        auto more = [&] {
            return budget.count > 0 ? launched < budget.count
                                    : Clock::now() < deadline;
        };
        net::GenerateFrame g;
        g.model = kLmName;
        g.maxNewTokens = kGenBudget;
        auto launch = [&](int s) {
            Stream &st = streams[static_cast<std::size_t>(s)];
            // Connection c takes prompts c, c+4, c+8, ...: all connections
            // together cycle through the whole prompt set.
            st.prompt = static_cast<std::size_t>(
                (conn + kConnections * launched) %
                static_cast<std::int64_t>(in.prompts.size()));
            st.tag = (static_cast<std::uint64_t>(conn) << 48) |
                     (static_cast<std::uint64_t>(launched) << 8) |
                     static_cast<std::uint64_t>(s);
            st.tokens.clear();
            g.tag = st.tag;
            g.prompt = in.prompts[st.prompt];
            st.sent = st.last = Clock::now();
            ++launched;
            ++active;
            if (!cl.sendGenerate(g))
                throw std::runtime_error("generate send failed");
        };
        if (!cl.connect("127.0.0.1", sys.port(), 60000))
            throw std::runtime_error("connect to the net server failed");
        for (int s = 0; s < kStreamsPerConn && more(); ++s)
            launch(s);
        net::StreamChunkFrame ch;
        while (active > 0) {
            if (!cl.recvStreamChunk(ch))
                throw std::runtime_error("stream chunk receive failed");
            auto now = Clock::now();
            auto s = static_cast<std::size_t>(ch.tag & 0xff);
            if (s >= streams.size() || streams[s].tag != ch.tag) {
                mine.mismatch = "stream chunk with an unknown tag";
                break;
            }
            Stream &st = streams[s];
            mine.kvPeakBytes =
                std::max(mine.kvPeakBytes, sys.gen->kvResidentBytes());
            if (ch.status != static_cast<std::uint8_t>(ServeStatus::Ok)) {
                ++mine.failed;
                if (!ch.last) {
                    mine.mismatch = "failed chunk that is not the last";
                    break;
                }
            } else {
                if (st.tokens.empty()) {
                    mine.ttftUs.push_back(microsBetween(st.sent, now));
                    spans.add("net.first_chunk", parent, st.sent, now, ch.tag);
                } else {
                    mine.itlUs.push_back(microsBetween(st.last, now));
                }
                if (ch.index != st.tokens.size() && mine.mismatch.empty())
                    mine.mismatch = "chunk index out of order";
                st.last = now;
                st.tokens.push_back(ch.token);
                ++mine.tokens;
            }
            if (!ch.last)
                continue;
            --active;
            spans.add("net.generate", parent, st.sent, now, ch.tag);
            if (ch.status == static_cast<std::uint8_t>(ServeStatus::Ok)) {
                ++mine.streams;
                std::string err = checkStream(
                    st.tokens, oracle.tokens[st.prompt], kGenBudget);
                if (!err.empty() && mine.mismatch.empty())
                    mine.mismatch = "prompt " + std::to_string(st.prompt) +
                                    ": " + err;
            }
            if (more())
                launch(static_cast<int>(s));
        }
        std::lock_guard<std::mutex> lock(all.mutex);
        GenResult &r = all.result;
        r.ttftUs.insert(r.ttftUs.end(), mine.ttftUs.begin(),
                        mine.ttftUs.end());
        r.itlUs.insert(r.itlUs.end(), mine.itlUs.begin(), mine.itlUs.end());
        r.streams += mine.streams;
        r.tokens += mine.tokens;
        r.failed += mine.failed;
        r.kvPeakBytes = std::max(r.kvPeakBytes, mine.kvPeakBytes);
        if (r.mismatch.empty())
            r.mismatch = mine.mismatch;
    };
    runClients("generation", client);
    all.result.elapsedS = secondsBetween(start, Clock::now());
    return std::move(all.result);
}

DeployResult
runDeployPhase(const Inputs &in, const std::string &workDir, Budget budget,
               SpanLog &spans, std::uint64_t parent)
{
    DeployResult r;
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(budget.seconds));
    const InferencePolicy alone{engine::Calibration::PerRow,
                                engine::PlanKind::Auto};
    double bitsSum = 0.0;
    auto moreRounds = [&] {
        return budget.count > 0 ? r.rounds < budget.count
                                : r.rounds == 0 || Clock::now() < deadline;
    };
    for (; moreRounds(); ++r.rounds) {
        for (std::size_t l = 0; l < zooLayers().size(); ++l) {
            const ZooLayer &zl = zooLayers()[l];
            for (PruneStrategy strategy : {PruneStrategy::ZeroPointShifting,
                                           PruneStrategy::RoundedAveraging}) {
                const std::uint64_t opSeed =
                    in.seed * 1000003 +
                    static_cast<std::uint64_t>(r.rounds) * 7919 + l * 2 +
                    (strategy == PruneStrategy::RoundedAveraging ? 1 : 0);
                ScopedSpan op(spans, "store.deploy", parent, opSeed);
                DeployStep step;
                step.weights = zl.rows * zl.cols;
                Rng rng(opSeed);

                Network net;
                net.add(std::make_unique<Dense>(zl.cols, zl.rows, rng));
                auto t0 = Clock::now();
                Int8Network owned = Int8Network::fromNetwork(
                    net, kGroupSize, kTargetColumns, strategy);
                auto t1 = Clock::now();
                const std::string path = workDir + "/deploy_" +
                                         std::to_string(l) + ".bbms";
                step.containerBytes = store::writeModelContainer(owned, path);
                auto t2 = Clock::now();
                std::shared_ptr<const store::MappedContainer> c;
                std::string err;
                bool opened = store::MappedContainer::tryOpen(path, c, &err);
                auto t3 = Clock::now();
                bool verified = opened && c->verifyChecksums(&err);
                auto t4 = Clock::now();
                if (!verified) { // a failed operation, not a wrong output
                    ++r.failed;
                    std::remove(path.c_str());
                    std::cerr << "deploy " << zl.name << " failed: " << err
                              << '\n';
                    continue;
                }
                Int8Network mapped = store::mapModel(c);
                auto t5 = Clock::now();
                Batch x(Shape{1, zl.cols});
                for (std::int64_t i = 0; i < zl.cols; ++i)
                    x.flat(i) = static_cast<float>(rng.uniformReal(-1, 1));
                Batch y = mapped.forward(x, alone);
                auto t6 = Clock::now();

                step.compressS = secondsBetween(t0, t1);
                step.writeS = secondsBetween(t1, t2);
                step.openS = secondsBetween(t2, t3);
                step.verifyS = secondsBetween(t3, t4);
                step.mapS = secondsBetween(t4, t5);
                step.firstForwardS = secondsBetween(t5, t6);
                spans.add("core+engine.quantise_compress_pack", op.id(), t0,
                          t1, opSeed);
                spans.add("store.write", op.id(), t1, t2, opSeed);
                spans.add("store.open", op.id(), t2, t3, opSeed);
                spans.add("store.verify", op.id(), t3, t4, opSeed);
                spans.add("store.map", op.id(), t4, t5, opSeed);
                spans.add("store.first_forward", op.id(), t5, t6, opSeed);

                std::string bad = checkDeployed(
                    *c, mapped, owned, kTargetColumns,
                    layerActivations(owned, 4, opSeed + 1));
                if (bad.empty())
                    bad = checkLogits(rowOf(y), rowOf(owned.forward(x, alone)));
                if (!bad.empty() && r.mismatch.empty())
                    r.mismatch = zl.name + ": " + bad;
                bitsSum += owned.layers()[0].planes->meanStoredBits();
                r.steps.push_back(step);
                std::remove(path.c_str());
            }
        }
    }
    if (!r.steps.empty())
        r.storedBitsMean = bitsSum / static_cast<double>(r.steps.size());
    return r;
}

} // namespace perfbench
