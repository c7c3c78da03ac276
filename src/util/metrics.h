/**
 * @file
 * Zero-dependency metrics registry and JSONL trace sink — the single
 * source of truth for every counter and timing the system reports
 * (Fig. 11's per-phase breakdown, Table II's end-to-end times, the
 * batch service's per-instance records, the bench trajectories).
 *
 * Design contract: a *disabled* registry costs one branch per record
 * site. Components resolve raw `Counter*` / `MetricTimer*` handles
 * once (at attach/construction time) and record through the null-safe
 * helpers (`metricInc` etc.); with no registry attached every handle
 * is null and each record site is a single predictable branch.
 *
 * Thread model: `Counter` and `Gauge` are relaxed atomics and may be
 * recorded from any thread. `MetricTimer` and `LatencyHistogram` are
 * single-writer (each component owns its handles on one thread); the
 * registry's name maps are mutex-guarded, and `merge()` is how
 * per-worker registries fold into a shared one after their threads
 * join. `TraceSink` serializes writers internally.
 */

#ifndef HYQSAT_UTIL_METRICS_H
#define HYQSAT_UTIL_METRICS_H

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/timer.h"

namespace hyqsat {

/**
 * Render a double as a JSON-safe number: NaN / ±Inf become "0"
 * (invalid JSON otherwise), finite values use %.*g significant
 * digits. Used by every report writer that streams doubles.
 */
std::string jsonNumber(double v, int precision = 9);

/** Minimal JSON string escaping (names, paths, labels). */
std::string jsonEscape(std::string_view s);

/** Monotonic counter (relaxed atomic; safe from any thread). */
class Counter
{
  public:
    void add(std::uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/** Last-value gauge (relaxed atomic; safe from any thread). */
class Gauge
{
  public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    double value() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/** Accumulating timer: total seconds + section count (one writer). */
class MetricTimer
{
  public:
    void
    add(double seconds, std::uint64_t sections = 1)
    {
        total_ += seconds;
        count_ += sections;
    }

    double seconds() const { return total_; }
    std::uint64_t count() const { return count_; }

    /** RAII guard timing one section (null timer = no-op). */
    class Scope
    {
      public:
        explicit Scope(MetricTimer *t) : t_(t) {}
        ~Scope()
        {
            if (t_)
                t_->add(timer_.seconds());
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        MetricTimer *t_;
        Timer timer_;
    };

  private:
    double total_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Fixed-bucket latency/occupancy histogram: N upper bounds define
 * N+1 buckets, the last catching everything above the top bound
 * (one writer).
 */
class LatencyHistogram
{
  public:
    explicit LatencyHistogram(std::vector<double> upper_bounds);

    /** Record one observation into its bucket. */
    void record(double v);

    const std::vector<double> &bounds() const { return bounds_; }

    /** Count in bucket @p i (0 .. bounds().size(), last = overflow). */
    std::uint64_t bucketCount(std::size_t i) const { return counts_[i]; }

    std::size_t buckets() const { return counts_.size(); }
    std::uint64_t total() const { return total_; }
    double sum() const { return sum_; }

  private:
    friend class MetricsRegistry; // merge()
    std::vector<double> bounds_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
};

/**
 * JSONL trace sink: one event per line with the event name, the
 * wall-clock offset since the sink opened, and a flat payload of
 * numeric and string fields. Thread-safe (writers serialize on an
 * internal mutex); intended for low-rate structural events (restarts,
 * backend outcomes, portfolio outcomes), not per-propagation logging.
 */
class TraceSink
{
  public:
    /** Open @p path for writing (ok() reports failure). */
    explicit TraceSink(const std::string &path);

    /** Write to an externally owned stream (tests). */
    explicit TraceSink(std::ostream &out);

    ~TraceSink();

    bool ok() const;

    using NumField = std::pair<std::string_view, double>;
    using StrField = std::pair<std::string_view, std::string_view>;

    /** Emit one `{"t_s": ..., "event": name, ...}` line. */
    void event(std::string_view name,
               std::initializer_list<NumField> nums = {},
               std::initializer_list<StrField> strs = {});

  private:
    std::mutex mutex_;
    std::unique_ptr<std::ostream> owned_;
    std::ostream *out_;
    Timer epoch_;
};

/**
 * The registry: named counters, gauges, timers and histograms with
 * stable addresses (handles stay valid for the registry's lifetime),
 * an optional trace sink, JSON serialization and merge.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Find-or-create; repeated calls return the same handle. */
    Counter *counter(const std::string &name);
    Gauge *gauge(const std::string &name);
    MetricTimer *timer(const std::string &name);

    /**
     * Find-or-create; @p upper_bounds is only consulted on creation
     * (an existing histogram keeps its buckets).
     */
    LatencyHistogram *histogram(const std::string &name,
                                std::vector<double> upper_bounds);

    /** Attach a trace sink (not owned; nullptr detaches). */
    void setTrace(TraceSink *sink) { trace_ = sink; }
    TraceSink *trace() const { return trace_; }

    /**
     * Fold @p other into this registry: counters/timers/histograms
     * accumulate, gauges take the other's last value. The source must
     * be quiescent (its writer threads joined).
     */
    void merge(const MetricsRegistry &other);

    /**
     * Serialize as one JSON document:
     * `{"schema": "hyqsat.metrics/1", "counters": {...}, "gauges":
     * {...}, "timers": {name: {"seconds", "count"}}, "histograms":
     * {name: {"bounds", "counts", "total", "sum"}}}`.
     * Every double goes through jsonNumber (no NaN/Inf can leak).
     */
    void writeJson(std::ostream &out) const;

    /**
     * Serialize as a Prometheus-style plain-text exposition (the
     * service's `/metrics` snapshot): every name is sanitized to
     * `hyqsat_<name>` with non-alphanumerics replaced by '_';
     * counters and gauges emit one `name value` line, timers emit
     * `_seconds`/`_count`, histograms emit cumulative
     * `_bucket{le="..."}` lines plus `_sum`/`_count`.
     */
    void writeText(std::ostream &out) const;

    /**
     * Flat (name, value) view for embedding in other reports:
     * counters and gauges by name, timers as `<name>_s`, histogram
     * totals as `<name>_total`. Sorted by name.
     */
    std::vector<std::pair<std::string, double>> snapshot() const;

  private:
    mutable std::mutex mutex_; // guards the maps, not the values
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<MetricTimer>> timers_;
    std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
    TraceSink *trace_ = nullptr;
};

// ----------------------------------------------------------------------
// Null-safe record helpers: the one-branch-when-disabled contract.
// ----------------------------------------------------------------------

inline void
metricInc(Counter *c, std::uint64_t n = 1)
{
    if (c)
        c->add(n);
}

inline void
metricSet(Gauge *g, double v)
{
    if (g)
        g->set(v);
}

inline void
metricTime(MetricTimer *t, double seconds)
{
    if (t)
        t->add(seconds);
}

inline void
metricObserve(LatencyHistogram *h, double v)
{
    if (h)
        h->record(v);
}

} // namespace hyqsat

#endif // HYQSAT_UTIL_METRICS_H
