#include "obs/stats.hpp"

#include <cmath>
#include <ostream>
#include <sstream>
#include <utility>

#include "obs/json.hpp"

namespace eccheck::obs {

double HistSummary::stddev() const { return std::sqrt(variance()); }

void HistSummary::merge(const HistSummary& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count);
  const double nb = static_cast<double>(other.count);
  const double delta = other.running_mean - running_mean;
  m2 += other.m2 + delta * delta * na * nb / (na + nb);
  running_mean += delta * nb / (na + nb);
  count += other.count;
  sum += other.sum;
  if (other.min < min) min = other.min;
  if (other.max > max) max = other.max;
}

std::string hist_summary_json(const HistSummary& h) {
  std::ostringstream os;
  os << "{\"count\":" << h.count << ",\"sum\":" << json_number(h.sum)
     << ",\"min\":" << json_number(h.min) << ",\"max\":" << json_number(h.max)
     << ",\"mean\":" << json_number(h.mean())
     << ",\"stddev\":" << json_number(h.stddev())
     << ",\"m2\":" << json_number(h.m2) << "}";
  return os.str();
}

void StatsRegistry::add(const std::string& name, std::uint64_t delta) {
  std::lock_guard lock(mu_);
  counters_[name] += delta;
}

void StatsRegistry::set_gauge(const std::string& name, double value) {
  std::lock_guard lock(mu_);
  gauges_[name] = value;
}

void StatsRegistry::observe(const std::string& name, double sample) {
  std::lock_guard lock(mu_);
  hists_[name].observe(sample);
}

void StatsRegistry::merge_hist(const std::string& name,
                               const HistSummary& other) {
  std::lock_guard lock(mu_);
  hists_[name].merge(other);
}

std::uint64_t StatsRegistry::counter(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double StatsRegistry::gauge(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second;
}

StatsRegistry::CounterMap StatsRegistry::counters() const {
  std::lock_guard lock(mu_);
  return counters_;
}

StatsRegistry::GaugeMap StatsRegistry::gauges() const {
  std::lock_guard lock(mu_);
  return gauges_;
}

StatsRegistry::HistMap StatsRegistry::histograms() const {
  std::lock_guard lock(mu_);
  return hists_;
}

void StatsRegistry::restore_counters(CounterMap snapshot) {
  std::lock_guard lock(mu_);
  counters_ = std::move(snapshot);
}

void StatsRegistry::clear() {
  std::lock_guard lock(mu_);
  counters_.clear();
  gauges_.clear();
  hists_.clear();
}

StatsRegistry::CounterMap StatsRegistry::delta(const CounterMap& now,
                                               const CounterMap& before) {
  CounterMap out;
  for (const auto& [key, value] : now) {
    auto it = before.find(key);
    const std::uint64_t base = it == before.end() ? 0 : it->second;
    if (value > base) out[key] = value - base;
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void StatsRegistry::write_json(std::ostream& os) const {
  CounterMap c;
  GaugeMap g;
  HistMap h;
  {
    std::lock_guard lock(mu_);
    c = counters_;
    g = gauges_;
    h = hists_;
  }
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [k, v] : c) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(k) << "\":" << v;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [k, v] : g) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(k) << "\":" << json_number(v);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [k, v] : h) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(k) << "\":" << hist_summary_json(v);
  }
  os << "}}";
}

std::string StatsRegistry::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace eccheck::obs
