// StatsRegistry: named counters, gauges and histogram summaries shared by
// the timing plane and the checkpoint engines.
//
// The registry is the machine-readable complement to the three coarse
// breakdown entries in SaveReport: every fabric helper on VirtualCluster
// counts the bytes it moved under an edge-kind key ("net.p2p_data.bytes",
// "remote.write.bytes", ...), and obs::collect_timeline_stats folds a
// finished sim::Timeline into per-resource busy gauges and per-stage task
// histograms. Engines snapshot the counter map before an operation and
// attach the delta to their report, so a report's "stats" always describes
// exactly one save or load even though the registry itself is cumulative
// for the cluster's lifetime.
//
// Counters are exact (uint64, accumulated per event with the same
// virtual-byte rounding the engines use), which lets tests assert that the
// per-edge-kind byte counters sum to SaveReport::network_bytes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>

namespace eccheck::obs {

/// Summary of observed samples: mean/min/max plus streaming (Welford)
/// variance — count/sum/min/max alone can't distinguish a stable stage from
/// a bimodal one when bench runs are compared.
struct HistSummary {
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double m2 = 0;           ///< Σ(x−mean)², updated via Welford's recurrence
  double running_mean = 0; ///< Welford's running mean (== mean() throughout)

  void observe(double sample) {
    if (count == 0) {
      min = max = sample;
    } else {
      if (sample < min) min = sample;
      if (sample > max) max = sample;
    }
    ++count;
    sum += sample;
    const double delta = sample - running_mean;
    running_mean += delta / static_cast<double>(count);
    m2 += delta * (sample - running_mean);
  }
  double mean() const { return count ? sum / static_cast<double>(count) : 0; }
  /// Sample variance (n−1 denominator); 0 with fewer than two samples.
  double variance() const {
    return count > 1 ? m2 / static_cast<double>(count - 1) : 0;
  }
  double stddev() const;

  /// Fold `other` into this summary (Chan's parallel Welford combine), as
  /// if every sample of both had been observed here. The aggregation path
  /// uses this to merge per-worker latency histograms into one fleet view.
  void merge(const HistSummary& other);
};

/// {"count":N,"sum":...,"min":...,"max":...,"mean":...,"stddev":...,"m2":...}
/// — m2 rides along so a parsed summary can be merge()d losslessly.
std::string hist_summary_json(const HistSummary& h);

class StatsRegistry {
 public:
  using CounterMap = std::map<std::string, std::uint64_t>;
  using GaugeMap = std::map<std::string, double>;
  using HistMap = std::map<std::string, HistSummary>;

  /// Monotonic counter (bytes moved, tasks emitted, ...).
  void add(const std::string& name, std::uint64_t delta = 1);

  /// Last-write-wins gauge (busy seconds, makespan, ...).
  void set_gauge(const std::string& name, double value);

  /// Histogram sample (task durations, packet latencies, ...).
  void observe(const std::string& name, double sample);

  /// Fold a whole pre-built summary into the named histogram (see
  /// HistSummary::merge) — the aggregation path for remote snapshots.
  void merge_hist(const std::string& name, const HistSummary& other);

  /// Current counter value (0 if never touched).
  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;

  CounterMap counters() const;
  GaugeMap gauges() const;
  HistMap histograms() const;

  /// Roll every counter back to `snapshot`, an earlier counters() of this
  /// registry. Gauges and histograms are untouched.
  void restore_counters(CounterMap snapshot);

  void clear();

  /// now - before, per key, dropping entries that did not move. `before`
  /// is a snapshot taken from the same registry via counters().
  static CounterMap delta(const CounterMap& now, const CounterMap& before);

  /// {"counters":{...},"gauges":{...},"histograms":{...}} on one line.
  void write_json(std::ostream& os) const;
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  CounterMap counters_;
  GaugeMap gauges_;
  HistMap hists_;
};

/// Minimal JSON string escaping for keys/labels.
std::string json_escape(const std::string& s);

}  // namespace eccheck::obs
