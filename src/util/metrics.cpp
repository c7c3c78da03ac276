#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace hyqsat {

std::string
jsonNumber(double v, int precision)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    return buf;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
            break;
        }
    }
    return out;
}

// ----------------------------------------------------------------------
// LatencyHistogram
// ----------------------------------------------------------------------

LatencyHistogram::LatencyHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds))
{
    std::sort(bounds_.begin(), bounds_.end());
    counts_.assign(bounds_.size() + 1, 0);
}

void
LatencyHistogram::record(double v)
{
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), v);
    ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
    ++total_;
    if (std::isfinite(v))
        sum_ += v;
}

// ----------------------------------------------------------------------
// TraceSink
// ----------------------------------------------------------------------

TraceSink::TraceSink(const std::string &path)
    : owned_(std::make_unique<std::ofstream>(path)), out_(owned_.get())
{
}

TraceSink::TraceSink(std::ostream &out) : out_(&out) {}

TraceSink::~TraceSink() = default;

bool
TraceSink::ok() const
{
    return out_ != nullptr && out_->good();
}

void
TraceSink::event(std::string_view name,
                 std::initializer_list<NumField> nums,
                 std::initializer_list<StrField> strs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!out_)
        return;
    *out_ << "{\"t_s\": " << jsonNumber(epoch_.seconds())
          << ", \"event\": \"" << jsonEscape(name) << '"';
    for (const auto &[key, value] : nums)
        *out_ << ", \"" << jsonEscape(key)
              << "\": " << jsonNumber(value);
    for (const auto &[key, value] : strs)
        *out_ << ", \"" << jsonEscape(key) << "\": \""
              << jsonEscape(value) << '"';
    *out_ << "}\n";
    out_->flush();
}

// ----------------------------------------------------------------------
// MetricsRegistry
// ----------------------------------------------------------------------

namespace {

template <typename T, typename... Args>
T *
findOrCreate(std::map<std::string, std::unique_ptr<T>> &map,
             const std::string &name, Args &&...args)
{
    auto it = map.find(name);
    if (it == map.end()) {
        it = map.emplace(name, std::make_unique<T>(
                                   std::forward<Args>(args)...))
                 .first;
    }
    return it->second.get();
}

} // namespace

Counter *
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return findOrCreate(counters_, name);
}

Gauge *
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return findOrCreate(gauges_, name);
}

MetricTimer *
MetricsRegistry::timer(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return findOrCreate(timers_, name);
}

LatencyHistogram *
MetricsRegistry::histogram(const std::string &name,
                           std::vector<double> upper_bounds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return findOrCreate(histograms_, name, std::move(upper_bounds));
}

void
MetricsRegistry::merge(const MetricsRegistry &other)
{
    std::scoped_lock lock(mutex_, other.mutex_);
    for (const auto &[name, c] : other.counters_)
        findOrCreate(counters_, name)->add(c->value());
    for (const auto &[name, g] : other.gauges_)
        findOrCreate(gauges_, name)->set(g->value());
    for (const auto &[name, t] : other.timers_)
        findOrCreate(timers_, name)->add(t->seconds(), t->count());
    for (const auto &[name, h] : other.histograms_) {
        LatencyHistogram *mine =
            findOrCreate(histograms_, name, h->bounds());
        if (mine->bounds_ == h->bounds_) {
            for (std::size_t i = 0; i < h->counts_.size(); ++i)
                mine->counts_[i] += h->counts_[i];
            mine->total_ += h->total_;
            mine->sum_ += h->sum_;
        }
    }
}

void
MetricsRegistry::writeJson(std::ostream &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    out << "{\n  \"schema\": \"hyqsat.metrics/1\",\n  \"counters\": {";
    const char *sep = "";
    for (const auto &[name, c] : counters_) {
        out << sep << "\n    \"" << jsonEscape(name)
            << "\": " << c->value();
        sep = ",";
    }
    out << (counters_.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
    sep = "";
    for (const auto &[name, g] : gauges_) {
        out << sep << "\n    \"" << jsonEscape(name)
            << "\": " << jsonNumber(g->value());
        sep = ",";
    }
    out << (gauges_.empty() ? "" : "\n  ") << "},\n  \"timers\": {";
    sep = "";
    for (const auto &[name, t] : timers_) {
        out << sep << "\n    \"" << jsonEscape(name)
            << "\": {\"seconds\": " << jsonNumber(t->seconds())
            << ", \"count\": " << t->count() << "}";
        sep = ",";
    }
    out << (timers_.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
    sep = "";
    for (const auto &[name, h] : histograms_) {
        out << sep << "\n    \"" << jsonEscape(name)
            << "\": {\"bounds\": [";
        for (std::size_t i = 0; i < h->bounds_.size(); ++i)
            out << (i ? ", " : "") << jsonNumber(h->bounds_[i]);
        out << "], \"counts\": [";
        for (std::size_t i = 0; i < h->counts_.size(); ++i)
            out << (i ? ", " : "") << h->counts_[i];
        out << "], \"total\": " << h->total_
            << ", \"sum\": " << jsonNumber(h->sum_) << "}";
        sep = ",";
    }
    out << (histograms_.empty() ? "" : "\n  ") << "}\n}\n";
}

namespace {

/** `portfolio.wins.cdcl#1` -> `hyqsat_portfolio_wins_cdcl_1`. */
std::string
promName(const std::string &name)
{
    std::string out = "hyqsat_";
    out.reserve(out.size() + name.size());
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

} // namespace

void
MetricsRegistry::writeText(std::ostream &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, c] : counters_)
        out << promName(name) << ' ' << c->value() << '\n';
    for (const auto &[name, g] : gauges_)
        out << promName(name) << ' ' << jsonNumber(g->value())
            << '\n';
    for (const auto &[name, t] : timers_) {
        const std::string p = promName(name);
        out << p << "_seconds " << jsonNumber(t->seconds()) << '\n'
            << p << "_count " << t->count() << '\n';
    }
    for (const auto &[name, h] : histograms_) {
        const std::string p = promName(name);
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h->bounds_.size(); ++i) {
            cumulative += h->counts_[i];
            out << p << "_bucket{le=\"" << jsonNumber(h->bounds_[i])
                << "\"} " << cumulative << '\n';
        }
        out << p << "_bucket{le=\"+Inf\"} " << h->total_ << '\n'
            << p << "_sum " << jsonNumber(h->sum_) << '\n'
            << p << "_count " << h->total_ << '\n';
    }
}

std::vector<std::pair<std::string, double>>
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, double>> out;
    out.reserve(counters_.size() + gauges_.size() + timers_.size() +
                histograms_.size());
    for (const auto &[name, c] : counters_)
        out.emplace_back(name, static_cast<double>(c->value()));
    for (const auto &[name, g] : gauges_)
        out.emplace_back(name, g->value());
    for (const auto &[name, t] : timers_)
        out.emplace_back(name + "_s", t->seconds());
    for (const auto &[name, h] : histograms_)
        out.emplace_back(name + "_total",
                         static_cast<double>(h->total_));
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace hyqsat
