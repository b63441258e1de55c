// chaos::Oracle: what both chaos campaigns check, kept once — the golden
// shard digests of every committed version, the checks every load must pass,
// and the seed-tagged violation sink. ChaosRunner (simulator) and
// SocketCampaign (forked daemons) each derive the digests and the version
// bounds their own way; the oracle holds and applies them:
//
//   bitexact       a load (or a save's echo) returns exactly the digests
//                  recorded when that version committed, for every worker;
//   version_range  a loaded or committed version lies in [floor, ceiling].
//
// Every other invariant reports through violation(), so all of them share
// one message format: "seed=S event=E [invariant] message".
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/stats.hpp"

namespace eccheck::chaos {

class Oracle {
 public:
  /// Counts violations into `violations` and appends the first 64 to
  /// `messages` (a campaign summary's fields); with `jsonl`, also writes
  /// each as one JSON line there.
  Oracle(std::uint64_t seed, std::size_t& violations,
         std::vector<std::string>& messages, std::ostream* jsonl = nullptr)
      : seed_(seed), violations_(violations), messages_(messages),
        jsonl_(jsonl) {}

  /// The index of the event being executed, stamped on every violation.
  void set_event(std::size_t event) { event_ = event; }

  /// The golden digests (worker order) of a committed version. A reused
  /// version number — after a rollback, or once every holder of the newest
  /// version was lost — replaces its entry.
  void commit(std::int64_t version, std::vector<std::uint64_t> digests) {
    golden_[version] = std::move(digests);
  }

  /// bitexact: `digests` (worker → digest) equal the golden digests of
  /// `version` and cover every worker, or with `partial` only those named.
  void check_digests(const std::string& what, std::int64_t version,
                     const std::map<int, std::uint64_t>& digests,
                     bool partial = false) {
    const std::string v = what + " version " + std::to_string(version);
    const auto it = golden_.find(version);
    if (it == golden_.end())
      return violation("bitexact", v + " never committed");
    const std::vector<std::uint64_t>& golden = it->second;
    if (!partial && digests.size() != golden.size())
      return violation("bitexact", v + " covered " +
                                       std::to_string(digests.size()) +
                                       " of " + std::to_string(golden.size()) +
                                       " workers");
    for (const auto& [w, d] : digests)
      if (w < 0 || static_cast<std::size_t>(w) >= golden.size() ||
          d != golden[static_cast<std::size_t>(w)])
        violation("bitexact", v + " worker " + std::to_string(w) +
                                  " digest mismatch");
  }

  /// version_range: floor ≤ version ≤ ceiling.
  void check_range(const std::string& what, std::int64_t version,
                   std::int64_t floor, std::int64_t ceiling) {
    const std::string v = what + " version " + std::to_string(version);
    if (version < floor)
      violation("version_range", v + " below " + std::to_string(floor));
    else if (version > ceiling)
      violation("version_range", v + " above " + std::to_string(ceiling));
  }

  void violation(const std::string& invariant, const std::string& message) {
    ++violations_;
    if (messages_.size() < 64)
      messages_.push_back("seed=" + std::to_string(seed_) + " event=" +
                          std::to_string(event_) + " [" + invariant + "] " +
                          message);
    if (jsonl_ != nullptr)
      *jsonl_ << "{\"seed\":" << seed_ << ",\"event\":" << event_
              << ",\"violation\":\"" << obs::json_escape(invariant)
              << "\",\"message\":\"" << obs::json_escape(message) << "\"}\n";
  }

 private:
  std::uint64_t seed_;
  std::size_t event_ = 0;
  std::size_t& violations_;
  std::vector<std::string>& messages_;
  std::ostream* jsonl_;
  std::map<std::int64_t, std::vector<std::uint64_t>> golden_;
};

}  // namespace eccheck::chaos
