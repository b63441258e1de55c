#include "net/retry_policy.hpp"

#include <chrono>
#include <climits>
#include <cstdlib>
#include <sstream>

namespace eccheck::net {

namespace {

/// The longest millisecond knob. A deadline is the clock's now() plus a
/// knob, and the service probes with an I/O timeout of 4 × heartbeat_period,
/// so 4 × the knob must leave room for now(): an eighth of the clock's
/// range, ≈36 years on a nanosecond clock.
constexpr long long kMaxMillis =
    std::chrono::duration_cast<Millis>(
        std::chrono::steady_clock::duration::max() / 8)
        .count();

}  // namespace

void RetryPolicy::set(const std::string& key, const std::string& value) {
  long long v = 0;
  try {
    std::size_t used = 0;
    v = std::stoll(value, &used);
    ECC_CHECK_MSG(used == value.size(), "trailing junk");
  } catch (const std::exception&) {
    throw CheckFailure("retry policy: bad value '" + value + "' for '" + key +
                       "'");
  }
  ECC_CHECK_MSG(v >= 0, "retry policy: '" << key << "' must be >= 0");
  auto millis = [&](Millis& knob) {
    ECC_CHECK_MSG(v <= kMaxMillis, "retry policy: '"
                                       << key << "' must be <= " << kMaxMillis
                                       << " ms (a later deadline overflows "
                                          "the clock)");
    knob = Millis(v);
  };
  auto count = [&](int& knob) {
    ECC_CHECK_MSG(v <= INT_MAX,
                  "retry policy: '" << key << "' must be <= " << INT_MAX);
    knob = static_cast<int>(v);
  };
  if (key == "connect_timeout")
    millis(connect_timeout);
  else if (key == "connect_retries")
    count(connect_retries);
  else if (key == "backoff_base")
    millis(backoff_base);
  else if (key == "backoff_max")
    millis(backoff_max);
  else if (key == "io_timeout")
    millis(io_timeout);
  else if (key == "heartbeat_period")
    millis(heartbeat_period);
  else if (key == "heartbeat_timeout")
    millis(heartbeat_timeout);
  else if (key == "suspect_probes")
    count(suspect_probes);
  else if (key == "ack_window") {
    ECC_CHECK_MSG(v >= 1,
                  "retry policy: ack_window must be >= 1 (a window of 0 "
                  "could never send a frame)");
    count(ack_window);
  } else
    throw CheckFailure("retry policy: unknown knob '" + key + "'");
}

RetryPolicy RetryPolicy::parse(const std::string& spec, RetryPolicy base) {
  std::istringstream is(spec);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    ECC_CHECK_MSG(eq != std::string::npos && eq > 0,
                  "retry policy: expected key=value, got '" << item << "'");
    base.set(item.substr(0, eq), item.substr(eq + 1));
  }
  return base;
}

RetryPolicy RetryPolicy::from_env(RetryPolicy base) {
  const char* spec = std::getenv("ECCHECK_NET_RETRY");
  return spec == nullptr ? base : parse(spec, base);
}

std::string RetryPolicy::describe() const {
  std::ostringstream os;
  os << "connect_timeout=" << connect_timeout.count()
     << ",connect_retries=" << connect_retries
     << ",backoff_base=" << backoff_base.count()
     << ",backoff_max=" << backoff_max.count()
     << ",io_timeout=" << io_timeout.count()
     << ",heartbeat_period=" << heartbeat_period.count()
     << ",heartbeat_timeout=" << heartbeat_timeout.count()
     << ",suspect_probes=" << suspect_probes
     << ",ack_window=" << ack_window;
  return os.str();
}

}  // namespace eccheck::net
