#include "mixes.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>

#include "support/logging.hh"
#include "trace/dacapo.hh"
#include "trace/synthetic.hh"

namespace perfbench {

using namespace jitsched;

namespace {

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Independent stream @p stream, item @p item of the workload seed. */
std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream, std::uint64_t item)
{
    return splitmix(seed ^ splitmix(stream * 0x100000001b3ULL + item));
}

/** A seeded permutation of 0..n-1 (Fisher-Yates). */
std::vector<std::size_t>
shuffled(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> v(n);
    std::iota(v.begin(), v.end(), 0);
    std::mt19937_64 rng(seed);
    for (std::size_t i = n; i > 1; --i)
        std::swap(v[i - 1], v[rng() % i]);
    return v;
}

// serve-distinct: 6 in 10 requests are iar.
const char *const kDistinctPolicies[] = {"iar", "v8", "jikes", "base-only",
                                         "lower-bound"};
constexpr std::size_t kDistinctRotation[10] = {0, 0, 0, 0, 0, 0,
                                               1, 2, 3, 4};
constexpr std::size_t kVariants = 4;

// serve-repeat-routed
const char *const kRepeatPolicies[] = {"iar", "v8", "jikes"};
constexpr std::size_t kHotSet = 32;
constexpr double kZipfSkew = 1.0;
constexpr std::size_t kZipfDraws = 1 << 16;

// exact-search: the catalogue's generator seeds are fixed; the
// workload seed scales every cost and orders the catalogue.
constexpr std::size_t kCatalogue = 52;
constexpr std::uint64_t kCatalogueSeed = 0x65786163ULL;

/**
 * @p w with every compile and execution time multiplied by
 * @p factor: the same search problem in another time unit, so exact
 * search does the same work whatever the seed.
 */
Workload
scaled(const Workload &w, Tick factor)
{
    std::vector<FunctionProfile> funcs;
    for (const FunctionProfile &f : w.functions()) {
        std::vector<LevelCosts> levels;
        for (std::size_t l = 0; l < f.numLevels(); ++l) {
            const LevelCosts &c = f.level(static_cast<Level>(l));
            levels.push_back({c.compile * factor, c.exec * factor});
        }
        funcs.emplace_back(f.name(), f.size(), std::move(levels));
    }
    return Workload(w.name(), std::move(funcs), w.calls());
}

} // anonymous namespace

const std::vector<std::string> &
mixNames()
{
    static const std::vector<std::string> names = {
        "serve-distinct", "serve-repeat-routed", "exact-search"};
    return names;
}

void
Mix::addBase(Workload w)
{
    ServiceRequest req;
    req.policy = "iar";
    req.workload = w;
    const std::string text = requestText(req);
    const auto at = text.find("\npayload\n");
    if (at == std::string::npos)
        JITSCHED_FATAL("request text without a payload line");
    std::string payload = text.substr(at + 1);

    // "func 0 <name> <size> <c0> <e0> ...": find the e0 token.
    std::size_t pos = payload.find("\nfunc 0 ");
    for (int tok = 0; tok < 5 && pos != std::string::npos; ++tok)
        pos = payload.find(' ', pos + 1);
    if (pos == std::string::npos)
        JITSCHED_FATAL("workload text without function 0");
    const std::size_t begin = pos + 1;
    const std::size_t end = payload.find_first_of(" \n", begin);
    e0_sites_.emplace_back(begin, end - begin);
    payloads_.push_back(std::move(payload));
    bases_.push_back(std::move(w));
}

void
Mix::addTemplate(std::size_t base, const std::string &policy,
                 ServiceOptions opts)
{
    ServiceRequest req;
    req.policy = policy;
    req.options = opts;
    const std::string text = requestText(req);
    const auto first = text.find('\n') + 1;
    Template t;
    t.base = base;
    t.policy = policy;
    t.options = opts;
    t.head = text.substr(first, text.find("payload\n") - first);
    templates_.push_back(std::move(t));
}

Mix::Mix(const std::string &name, std::uint64_t seed, std::size_t cores)
    : name_(name)
{
    if (name == "serve-distinct") {
        const auto &specs = dacapoSpecs();
        for (std::size_t s = 0; s < specs.size(); ++s) {
            for (std::size_t v = 0; v < kVariants; ++v) {
                // A huge scale leaves the Table-1 function count and
                // four calls per function, keeping the DaCapo shape's
                // compile/execute balance.
                SyntheticConfig cfg = dacapoConfig(specs[s], 1 << 20);
                cfg.name = specs[s].name + "-v" + std::to_string(v);
                cfg.seed = subSeed(seed, 1, s * kVariants + v);
                addBase(generateSynthetic(cfg));
                for (const char *p : kDistinctPolicies)
                    addTemplate(bases_.size() - 1, p);
            }
        }
        order_ = shuffled(bases_.size(), subSeed(seed, 1, 1000));
    } else if (name == "serve-repeat-routed") {
        backends_ = 2;
        routed_ = true;
        for (std::size_t r = 0; r < kHotSet; ++r) {
            // Sizes follow a fixed ladder over the Zipf ranks, so the
            // traffic's size profile does not change with the seed.
            SyntheticConfig cfg;
            cfg.name = "hot-" + std::to_string(r);
            cfg.numFunctions = 60 + (r * 37) % 61;
            cfg.numCalls = 1500 + (r * 613) % 1501;
            cfg.seed = subSeed(seed, 2, r);
            addBase(generateSynthetic(cfg));
            addTemplate(r, kRepeatPolicies[r % 3]);
        }
        std::vector<double> cdf(kHotSet);
        double total = 0.0;
        for (std::size_t r = 0; r < kHotSet; ++r) {
            total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfSkew);
            cdf[r] = total;
        }
        std::mt19937_64 rng(subSeed(seed, 2, 1000));
        for (std::size_t i = 0; i < kZipfDraws; ++i) {
            const double u = static_cast<double>(rng() >> 11) * 0x1p-53 *
                             total;
            const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
            order_.push_back(std::min<std::size_t>(
                static_cast<std::size_t>(it - cdf.begin()), kHotSet - 1));
        }
    } else if (name == "exact-search") {
        clients_ = 1;
        cycle_ = 2 * kCatalogue;
        ServiceOptions par;
        par.astarThreads = cores;
        for (std::size_t i = 0; i < kCatalogue; ++i) {
            SyntheticConfig cfg;
            cfg.name = "exact-" + std::to_string(i);
            cfg.numFunctions = 6;
            cfg.numCalls = 30 + (i * 7) % 31;
            cfg.numLevels = 3;
            cfg.numPhases = 2;
            cfg.seed = kCatalogueSeed + i;
            const Workload w = generateSynthetic(cfg);
            addBase(scaled(w, static_cast<Tick>(
                                  2 + subSeed(seed, 4, i) % 7)));
            addTemplate(i, "astar");
            addTemplate(i, "astar-par", par);
        }
        order_ = shuffled(kCatalogue, subSeed(seed, 3, 1000));
    } else {
        JITSCHED_FATAL("unknown workload '", name, "'");
    }
}

Pick
Mix::pick(std::uint64_t k) const
{
    if (name_ == "serve-distinct") {
        const std::size_t n = order_.size();
        const std::size_t b = order_[k % n];
        const std::size_t pol = kDistinctRotation[(k / n + b) % 10];
        return {b * std::size(kDistinctPolicies) + pol, k + 1};
    }
    if (name_ == "serve-repeat-routed")
        return {order_[k % order_.size()], 0};
    return {order_[(k / 2) % order_.size()] * 2 + k % 2, 0};
}

std::string
Mix::frame(std::uint64_t id, const Pick &p) const
{
    const Template &t = templates_[p.tmpl];
    const std::string &payload = payloads_[t.base];
    std::string out = "jitsched-request " + std::to_string(id) + "\n";
    out.reserve(out.size() + t.head.size() + payload.size() + 16);
    out += t.head;
    if (p.delta == 0) {
        out += payload;
        return out;
    }
    const auto [at, len] = e0_sites_[t.base];
    const Tick e0 = bases_[t.base].function(0).execTime(0);
    out.append(payload, 0, at);
    out += std::to_string(e0 + static_cast<Tick>(p.delta));
    out.append(payload, at + len, std::string::npos);
    return out;
}

Workload
Mix::workload(const Pick &p) const
{
    const Workload &w = bases_[templates_[p.tmpl].base];
    if (p.delta == 0)
        return w;
    std::vector<FunctionProfile> funcs = w.functions();
    const FunctionProfile &f0 = funcs[0];
    std::vector<LevelCosts> levels;
    for (std::size_t l = 0; l < f0.numLevels(); ++l)
        levels.push_back(f0.level(static_cast<Level>(l)));
    levels[0].exec += static_cast<Tick>(p.delta);
    funcs[0] = FunctionProfile(f0.name(), f0.size(), std::move(levels));
    return Workload(w.name(), std::move(funcs), w.calls());
}

} // namespace perfbench
