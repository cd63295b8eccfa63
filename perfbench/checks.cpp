#include "checks.hpp"

#include <cstring>
#include <sstream>

#include "common/random.hpp"
#include "gemm/compressed_gemm.hpp"

namespace perfbench {

using namespace bbs;

std::string
checkLogits(const std::vector<float> &got, const std::vector<float> &want)
{
    if (got.size() != want.size())
        return "logit count " + std::to_string(got.size()) + " != " +
               std::to_string(want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
            std::ostringstream s;
            s.precision(9);
            s << "logit " << i << " is " << got[i] << ", batch-1 reference "
              << want[i];
            return s.str();
        }
    return {};
}

std::string
checkStream(const std::vector<std::int32_t> &got,
            const std::vector<std::int32_t> &want, std::size_t budget)
{
    if (got.size() != budget)
        return "stream delivered " + std::to_string(got.size()) +
               " tokens, budget " + std::to_string(budget);
    if (want.size() != budget)
        return "reference has " + std::to_string(want.size()) + " tokens";
    for (std::size_t i = 0; i < budget; ++i)
        if (got[i] != want[i])
            return "token " + std::to_string(i) + " is " +
                   std::to_string(got[i]) + ", generateReference " +
                   std::to_string(want[i]);
    return {};
}

std::vector<std::int64_t>
naiveMatmul(const Int8Tensor &w, const Int8Tensor &a)
{
    const std::int64_t k = w.shape().dim(0), c = w.shape().dim(1);
    const std::int64_t n = a.shape().dim(0);
    std::vector<std::int64_t> out(static_cast<std::size_t>(n * k), 0);
    for (std::int64_t i = 0; i < n; ++i)
        for (std::int64_t o = 0; o < k; ++o) {
            std::int64_t acc = 0;
            for (std::int64_t j = 0; j < c; ++j)
                acc += static_cast<std::int64_t>(a.flat(i * c + j)) *
                       static_cast<std::int64_t>(w.flat(o * c + j));
            out[static_cast<std::size_t>(i * k + o)] = acc;
        }
    return out;
}

std::string
checkPlansAgainstNaive(const Int8Network &net,
                       const std::vector<Int8Tensor> &acts)
{
    const auto &layers = net.layers();
    if (acts.size() != layers.size())
        return "one activation batch per layer expected";
    for (std::size_t l = 0; l < layers.size(); ++l) {
        Int32Tensor got;
        layers[l].plan.run(acts[l], got);
        std::vector<std::int64_t> want =
            naiveMatmul(layers[l].planes->decompress(), acts[l]);
        if (static_cast<std::size_t>(got.numel()) != want.size())
            return "layer " + std::to_string(l) + " product shape differs";
        for (std::size_t i = 0; i < want.size(); ++i)
            if (got.flat(static_cast<std::int64_t>(i)) != want[i])
                return "layer " + std::to_string(l) + " product element " +
                       std::to_string(i) + " is " +
                       std::to_string(got.flat(static_cast<std::int64_t>(i))) +
                       ", naive int32 matmul " + std::to_string(want[i]);
    }
    return {};
}

std::string
checkStoredBits(const Int8Network &net, int targetColumns)
{
    const int bound = 8 - targetColumns;
    for (std::size_t l = 0; l < net.layers().size(); ++l) {
        const auto groups = net.layers()[l].planes->packedGroups();
        for (std::size_t g = 0; g < groups.size(); ++g)
            if (groups[g].bits > bound)
                return "layer " + std::to_string(l) + " group " +
                       std::to_string(g) + " stores " +
                       std::to_string(groups[g].bits) + " bits > " +
                       std::to_string(bound);
    }
    return {};
}

std::string
checkSameWeights(const Int8Network &mapped, const Int8Network &owned)
{
    if (mapped.layers().size() != owned.layers().size())
        return "layer count differs";
    for (std::size_t l = 0; l < owned.layers().size(); ++l) {
        Int8Tensor a = mapped.layers()[l].planes->decompress();
        Int8Tensor b = owned.layers()[l].planes->decompress();
        if (a.numel() != b.numel())
            return "layer " + std::to_string(l) + " weight count differs";
        for (std::int64_t i = 0; i < a.numel(); ++i)
            if (a.flat(i) != b.flat(i))
                return "layer " + std::to_string(l) + " weight " +
                       std::to_string(i) + " is " + std::to_string(a.flat(i)) +
                       " mapped, " + std::to_string(b.flat(i)) + " in memory";
    }
    return {};
}

std::string
checkDeployed(const store::MappedContainer &container,
              const Int8Network &mapped, const Int8Network &owned,
              int targetColumns, const std::vector<Int8Tensor> &acts)
{
    std::string err;
    if (!container.verifyChecksums(&err))
        return "checksum: " + err;
    if (std::string e = checkStoredBits(mapped, targetColumns); !e.empty())
        return e;
    if (std::string e = checkSameWeights(mapped, owned); !e.empty())
        return e;
    return checkPlansAgainstNaive(mapped, acts);
}

std::vector<Int8Tensor>
layerActivations(const Int8Network &net, std::int64_t rows,
                 std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Int8Tensor> acts;
    for (const auto &layer : net.layers()) {
        Int8Tensor a(Shape{rows, layer.inFeatures});
        for (std::int64_t i = 0; i < a.numel(); ++i)
            a.flat(i) = static_cast<std::int8_t>(rng.uniformInt(-127, 127));
        acts.push_back(std::move(a));
    }
    return acts;
}

} // namespace perfbench
