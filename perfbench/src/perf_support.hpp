/**
 * @file
 * Measurement helpers of the end-to-end benchmark program: in-memory
 * spans with parent links, span self time, sample percentiles, the
 * tail-percentile rule and the seek-target mix. Header-only so the helper tests can include it
 * without the library.
 */

#ifndef PERFBENCH_PERF_SUPPORT_HPP_
#define PERFBENCH_PERF_SUPPORT_HPP_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds since an arbitrary fixed origin (steady clock). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** One closed span. Times are steady-clock nanoseconds. */
struct SpanRecord
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    /// Index of the enclosing span in the tracer's list; -1 for a root.
    long parent = -1;
    /// Operation id: the index of the root span this one descends from.
    long op = -1;
};

/**
 * Span registry of one benchmark run. Spans nest through a stack, so
 * they must be opened and closed on the thread that owns the tracer.
 * When disabled it keeps nothing; Span still measures its duration,
 * so the untraced run times the same code regions.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Open a span; returns its index (or -1 when disabled). */
    long
    open(const char *name, std::int64_t start)
    {
        if (!enabled_)
            return -1;
        SpanRecord rec;
        rec.name = name;
        rec.start = start;
        rec.parent = stack_.empty() ? -1 : stack_.back();
        const long idx = static_cast<long>(spans_.size());
        rec.op = rec.parent < 0 ? idx : spans_[rec.parent].op;
        spans_.push_back(std::move(rec));
        stack_.push_back(idx);
        return idx;
    }

    void
    close(long idx, std::int64_t end)
    {
        if (idx < 0)
            return;
        spans_[static_cast<std::size_t>(idx)].end = end;
        if (stack_.empty() || stack_.back() != idx)
            throw std::logic_error("perfbench: spans closed out of order");
        stack_.pop_back();
    }

  private:
    bool enabled_;
    std::vector<SpanRecord> spans_;
    std::vector<long> stack_;
};

/**
 * RAII span. seconds() is valid after stop() (or destruction); stop()
 * may be called once to end the span early.
 */
class Span
{
  public:
    Span(Tracer &tracer, const char *name)
        : tracer_(tracer), start_(nowNs()),
          idx_(tracer.open(name, start_))
    {
    }

    ~Span() { stop(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span; returns its duration in seconds. */
    double
    stop()
    {
        if (end_ == 0) {
            end_ = nowNs();
            tracer_.close(idx_, end_);
        }
        return seconds();
    }

    double seconds() const { return (end_ - start_) * 1e-9; }

  private:
    Tracer &tracer_;
    std::int64_t start_;
    long idx_;
    std::int64_t end_ = 0;
};

/**
 * Self time of every span, in nanoseconds: its duration minus the part
 * of its interval that its direct children cover. Overlapping children
 * are counted once, and child time outside the parent is ignored.
 */
inline std::vector<std::int64_t>
selfTimes(const std::vector<SpanRecord> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0)
            children[static_cast<std::size_t>(spans[i].parent)].push_back(i);

    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &p = spans[i];
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        for (const std::size_t c : children[i]) {
            const std::int64_t s = std::max(spans[c].start, p.start);
            const std::int64_t e = std::min(spans[c].end, p.end);
            if (e > s)
                iv.emplace_back(s, e);
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_s = 0, cur_e = 0;
        bool open = false;
        for (const auto &[s, e] : iv) {
            if (open && s <= cur_e) {
                cur_e = std::max(cur_e, e);
                continue;
            }
            if (open)
                covered += cur_e - cur_s;
            cur_s = s;
            cur_e = e;
            open = true;
        }
        if (open)
            covered += cur_e - cur_s;
        self[i] = (p.end - p.start) - covered;
    }
    return self;
}

/**
 * Nearest-rank percentile @p pct (0 < pct <= 100) of @p samples: the
 * smallest sample with at least pct% of the samples at or below it.
 */
inline double
percentile(std::vector<double> samples, double pct)
{
    if (samples.empty())
        throw std::invalid_argument("perfbench: percentile of no samples");
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

inline double
median(const std::vector<double> &samples)
{
    return percentile(samples, 50.0);
}

/// Samples that must lie beyond the tail percentile.
constexpr std::size_t kTailBeyond = 10;
/// Fewest samples with which a tail is reported: below this the tail
/// would sit at or under the median.
constexpr std::size_t kMinTailSamples = 2 * kTailBeyond;

/**
 * The tail percentile for @p n samples: the highest nearest-rank
 * percentile that leaves at least kTailBeyond samples above it, i.e.
 * rank n - kTailBeyond, or 100 * (n - 10) / n. 40 samples give p75,
 * 100 give p90 and 1000 give p99.
 * @throws std::invalid_argument when n < kMinTailSamples.
 */
inline double
tailPercentile(std::size_t n)
{
    if (n < kMinTailSamples)
        throw std::invalid_argument("perfbench: a tail needs at least "
                                    + std::to_string(kMinTailSamples)
                                    + " samples, got " + std::to_string(n));
    return 100.0 * static_cast<double>(n - kTailBeyond)
           / static_cast<double>(n);
}

/** The tail sample: the (kTailBeyond + 1)-th largest. */
inline double
tail(const std::vector<double> &samples)
{
    return percentile(samples, tailPercentile(samples.size()));
}

/**
 * @p passes passes over the indices 0..n-1, each pass in an order drawn
 * from @p rng, so every index appears exactly @p passes times whatever
 * the seed.
 */
template <typename Rng>
std::vector<std::size_t>
shuffledPasses(std::size_t n, int passes, Rng &rng)
{
    std::vector<std::size_t> out;
    std::vector<std::size_t> order(n);
    for (int p = 0; p < passes; ++p) {
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::shuffle(order.begin(), order.end(), rng);
        out.insert(out.end(), order.begin(), order.end());
    }
    return out;
}

/**
 * Share @p k of @p parts contiguous shares of @p items. The shares
 * cover every item once and their sizes differ by at most one.
 */
template <typename T>
std::vector<T>
evenShare(const std::vector<T> &items, int k, int parts)
{
    const std::size_t n = items.size();
    const auto at = [&](int j) {
        return items.begin()
               + static_cast<long>(n * static_cast<std::size_t>(j)
                                   / static_cast<std::size_t>(parts));
    };
    return {at(k), at(k + 1)};
}

/** Per-name aggregate of a span list (the per-layer table). */
struct LayerRow
{
    std::size_t count = 0;
    double totalMs = 0;
    double selfMs = 0;
    std::vector<double> durationsMs; ///< one per span, in span order
};

/**
 * Aggregate @p spans by name, skipping every span whose operation root
 * is named @p excluded_root (the benchmark's untimed warm-ups).
 */
inline std::map<std::string, LayerRow>
layerTable(const std::vector<SpanRecord> &spans,
           const std::string &excluded_root = "")
{
    const std::vector<std::int64_t> self = selfTimes(spans);
    std::map<std::string, LayerRow> rows;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (!excluded_root.empty()
            && spans[static_cast<std::size_t>(spans[i].op)].name
                   == excluded_root)
            continue;
        LayerRow &row = rows[spans[i].name];
        const double ms = (spans[i].end - spans[i].start) * 1e-6;
        ++row.count;
        row.totalMs += ms;
        row.selfMs += self[i] * 1e-6;
        row.durationsMs.push_back(ms);
    }
    return rows;
}

/** Chrome trace-event JSON ("X" complete events, microseconds). */
inline std::string
chromeTraceJson(const std::vector<SpanRecord> &spans)
{
    std::int64_t origin = spans.empty() ? 0 : spans.front().start;
    for (const SpanRecord &s : spans)
        origin = std::min(origin, s.start);
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    char buf[512];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\": \"%s\", \"cat\": \"perfbench\", "
                      "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                      "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                      "\"parent\": %ld, \"op\": %ld}}",
                      i ? "," : "", s.name.c_str(),
                      (s.start - origin) * 1e-3, (s.end - s.start) * 1e-3, i,
                      s.parent, s.op);
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

} // namespace perfbench

#endif // PERFBENCH_PERF_SUPPORT_HPP_
