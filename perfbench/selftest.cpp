/**
 * @file
 * Self-tests of the benchmark's own code: the percentile rule, and each
 * workload's checker failing on a corrupted output (one flipped logit,
 * one changed token, one flipped stored bit in a container), which shows
 * the checks are not vacuous.
 */
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <stdexcept>

#include "checks.hpp"
#include "common/random.hpp"
#include "harness.hpp"
#include "llm/transformer.hpp"
#include "nn/layers.hpp"
#include "nn/network.hpp"
#include "store/container.hpp"

namespace perfbench {

using namespace bbs;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "  pass  " : "  FAIL  ") << what << '\n';
    if (!ok)
        ++failures;
}

bool
throws(const std::vector<double> &xs, double p)
{
    try {
        tailOf(xs, p, "self-test");
        return false;
    } catch (const std::runtime_error &) {
        return true;
    }
}

void
percentileRule()
{
    expect(supportedPercentile(0) == 50.0, "no samples: median only");
    expect(supportedPercentile(39) == 50.0, "39 samples: median only");
    expect(supportedPercentile(99) == 50.0,
           "99 samples: 9.9 beyond p90, median only");
    expect(supportedPercentile(100) == 90.0, "100 samples support p90");
    expect(supportedPercentile(999) == 90.0,
           "999 samples: 9.99 beyond p99, p90 is the tail");
    expect(supportedPercentile(1000) == 99.0, "1000 samples support p99");
    expect(supportedPercentile(10000) == 99.9, "10000 samples support p99.9");
    std::vector<double> xs(999);
    for (std::size_t i = 0; i < xs.size(); ++i)
        xs[i] = static_cast<double>(i);
    expect(throws(xs, 99.0), "p99 of 999 samples is refused");
    xs.push_back(999.0);
    expect(!throws(xs, 99.0) && std::fabs(tailOf(xs, 99.0, "") - 989.01) <
                                    1e-9,
           "p99 of 0..999 interpolates to 989.01");
    expect(percentileOf({3.0, 1.0, 2.0}, 50.0) == 2.0, "median of 3 values");
}

Int8Network
smallNet(std::uint64_t seed)
{
    Rng rng(seed);
    Network net;
    net.add(std::make_unique<Dense>(96, 64, rng));
    net.add(std::make_unique<ReluLayer>());
    net.add(std::make_unique<Dense>(64, 10, rng));
    return Int8Network::fromNetwork(net, 32, 4,
                                    PruneStrategy::ZeroPointShifting);
}

void
logitChecker()
{
    Int8Network net = smallNet(5);
    Batch x(Shape{1, 96});
    Rng rng(6);
    for (std::int64_t i = 0; i < x.numel(); ++i)
        x.flat(i) = static_cast<float>(rng.uniformReal(-1, 1));
    const InferencePolicy alone{engine::Calibration::PerRow,
                                engine::PlanKind::Auto};
    Batch y = net.forward(x, alone);
    std::vector<float> want(y.data().begin(), y.data().end());
    std::vector<float> got = want;
    expect(checkLogits(got, want).empty(), "logits equal to the reference");
    std::uint32_t bits = 0;
    std::memcpy(&bits, &got[3], sizeof bits);
    bits ^= 1u; // one ulp
    std::memcpy(&got[3], &bits, sizeof bits);
    expect(!checkLogits(got, want).empty(), "one flipped logit bit fails");
    got.pop_back();
    expect(!checkLogits(got, want).empty(), "a missing logit fails");
}

void
streamChecker()
{
    llm::TransformerConfig cfg;
    cfg.dModel = 64;
    cfg.nHeads = 2;
    cfg.dFf = 128;
    cfg.nLayers = 1;
    cfg.vocab = 64;
    cfg.maxSeq = 32;
    llm::TransformerModel model(cfg);
    std::vector<std::int32_t> prompt = {1, 5, 9, 2};
    std::vector<std::int32_t> want = model.generateReference(prompt, 6);
    std::vector<std::int32_t> got = model.generateReference(prompt, 6);
    expect(checkStream(got, want, 6).empty(), "stream equal to the reference");
    got[2] = (got[2] + 1) % static_cast<std::int32_t>(cfg.vocab);
    expect(!checkStream(got, want, 6).empty(), "one changed token fails");
    got = want;
    got.pop_back();
    expect(!checkStream(got, want, 6).empty(), "a short stream fails");
}

/** Flip bit 0 of plane 0 of the first group that stores a plane. */
bool
flipStoredBit(const std::string &from, const std::string &to)
{
    std::ifstream in(from, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    store::FileHeader h;
    std::memcpy(&h, bytes.data(), sizeof h);
    for (std::uint32_t e = 0; e < h.entryCount; ++e) {
        store::DirEntry d;
        std::memcpy(&d, bytes.data() + sizeof h + e * sizeof d, sizeof d);
        if (d.kind != static_cast<std::uint32_t>(store::SectionKind::Groups))
            continue;
        for (std::uint64_t off = d.offset; off + sizeof(PackedGroup) <=
                                           d.offset + d.length;
             off += sizeof(PackedGroup)) {
            PackedGroup g;
            std::memcpy(&g, bytes.data() + off, sizeof g);
            if (g.bits < 1 || g.size < 1)
                continue;
            bytes[off] = static_cast<char>(bytes[off] ^ 1);
            std::ofstream out(to, std::ios::binary);
            out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
            return static_cast<bool>(out);
        }
    }
    return false;
}

void
containerChecker(const std::string &workDir)
{
    Int8Network owned = smallNet(7);
    const std::string path = workDir + "/selftest.bbms";
    const std::string bad = workDir + "/selftest_flipped.bbms";
    store::writeModelContainer(owned, path);
    auto acts = layerActivations(owned, 3, 8);
    std::shared_ptr<const store::MappedContainer> c;
    std::string err;
    expect(store::MappedContainer::tryOpen(path, c, &err),
           "intact container opens");
    Int8Network mapped = store::mapModel(c);
    expect(checkDeployed(*c, mapped, owned, 4, acts).empty(),
           "intact container passes the deployment check");
    expect(checkPlansAgainstNaive(owned, acts).empty(),
           "plan products equal the naive int32 matmul");

    expect(flipStoredBit(path, bad), "flipped one stored bit");
    std::shared_ptr<const store::MappedContainer> cb;
    expect(store::MappedContainer::tryOpen(bad, cb, &err),
           "flipped container still passes open-time validation");
    if (cb) {
        Int8Network flipped = store::mapModel(cb);
        expect(!checkSameWeights(flipped, owned).empty(),
               "flipped stored bit: mapped weights differ from memory");
        expect(!checkDeployed(*cb, flipped, owned, 4, acts).empty(),
               "flipped stored bit fails the deployment check");
        expect(checkStoredBits(flipped, 8).size() > 0 &&
                   checkStoredBits(flipped, 4).empty(),
               "stored-bits bound is enforced at 8 - targetColumns");
    }
    std::remove(path.c_str());
    std::remove(bad.c_str());
}

} // namespace

int
runSelfTests(const std::string &workDir)
{
    failures = 0;
    std::cout << "percentile rule\n";
    percentileRule();
    std::cout << "mlp_net checker\n";
    logitChecker();
    std::cout << "llm_net checker\n";
    streamChecker();
    std::cout << "compress_store checker\n";
    containerChecker(workDir);
    return failures;
}

} // namespace perfbench
