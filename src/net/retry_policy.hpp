// RetryPolicy: every retry/timeout/backoff knob of the socket stack in one
// struct, parsed from one place.
//
// Before this existed the constants were scattered: connect budgets in
// socket.hpp, I/O deadlines in transport.hpp, and the service layer grew
// its own heartbeat timings. Anything that opens a socket now derives its
// timing from a RetryPolicy (TransportOptions embeds one), and CLIs/tests
// override knobs through a single "key=value,key=value" spec — also
// honored from the environment (ECCHECK_NET_RETRY), so multi-process
// harnesses can retune forked daemons without plumbing flags.
//
// Defaults (milliseconds unless noted):
//   connect_timeout   1000   per-attempt connect deadline
//   connect_retries     10   extra attempts with exponential backoff
//   backoff_base        10   first backoff sleep; doubles per attempt
//   backoff_max        500   backoff ceiling
//   io_timeout        5000   per read/write/accept deadline
//   heartbeat_period   250   worker → coordinator liveness beat interval
//   heartbeat_timeout 1500   silence before the coordinator suspects
//   suspect_probes       2   failed probes before a suspect is declared dead
//   ack_window           8   frames in flight per connection on the data
//                            plane and fan-out roots (count)
#pragma once

#include <string>

#include "net/socket.hpp"

namespace eccheck::net {

struct RetryPolicy {
  /// Per-attempt connect timeout; total connect budget is
  /// connect_retries+1 attempts with exponential backoff between them.
  Millis connect_timeout{1000};
  int connect_retries = 10;
  Millis backoff_base{10};
  Millis backoff_max{500};

  /// Deadline for each read/write/accept — the bound on how long a dead
  /// peer can stall a collective before CheckFailure.
  Millis io_timeout{5000};

  /// Liveness layer (svc): workers beat the coordinator every
  /// heartbeat_period; heartbeat_timeout of silence makes a worker
  /// suspect; suspect_probes consecutive failed probes confirm death
  /// (the wall-clock analogue of FailureDetectorConfig's quorum).
  Millis heartbeat_period{250};
  Millis heartbeat_timeout{1500};
  int suspect_probes = 2;

  /// Sliding ack window: data frames a connection may have in flight before
  /// the sender must reconcile a CRC-echo ack; broadcast and barrier-release
  /// roots send through it too. 1 = stop-and-wait (the pre-pipelining
  /// behavior, and always used for the remaining control frames); larger
  /// windows let collectives overlap transfers with ack latency. Must be
  /// ≥ 1 — a window of 0 could never send anything, so it is rejected at
  /// parse/set time.
  int ack_window = 8;

  /// Apply one "key=value" override; throws CheckFailure on an unknown key,
  /// an unparsable or negative value, a count above INT_MAX, or a
  /// millisecond value whose deadline could overflow the clock.
  void set(const std::string& key, const std::string& value);

  /// Parse a comma-separated "key=value,..." spec over `base`. Empty spec
  /// returns `base` unchanged.
  static RetryPolicy parse(const std::string& spec, RetryPolicy base);
  static RetryPolicy parse(const std::string& spec) {
    return parse(spec, RetryPolicy{});
  }

  /// `base` overridden by the ECCHECK_NET_RETRY environment spec (if set).
  static RetryPolicy from_env(RetryPolicy base);
  static RetryPolicy from_env() { return from_env(RetryPolicy{}); }

  /// "connect_timeout=1000,connect_retries=10,..." — round-trips through
  /// parse(); used by `health` and the docs.
  std::string describe() const;
};

}  // namespace eccheck::net
