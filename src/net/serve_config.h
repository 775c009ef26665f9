#ifndef ICEWAFL_NET_SERVE_CONFIG_H_
#define ICEWAFL_NET_SERVE_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/server.h"
#include "util/diag.h"
#include "util/json.h"
#include "util/result.h"

namespace icewafl {
namespace net {

/// \brief One named session entry of a serve document: which scenario
/// to pollute, how, and when its runs start and stop.
struct SessionConfig {
  /// Session id clients subscribe with; defaults to the scenario name.
  std::string name;
  std::string scenario;
  uint64_t seed = 42;
  int parallelism = 1;
  int min_subscribers = 1;
  /// Pipeline runs before the session retires; 0 = until stopped.
  uint64_t max_runs = 0;
  /// Optional cleaning-rules document applied to this session's served
  /// stream (scenarios::BuildPlanWithCleaner); null serves raw polluted
  /// output. Checked schemaless by the cleaner loader at load; bound
  /// against the scenario's schema when the session's plan is built.
  Json cleaner;

  /// \brief Per-session server options for this entry.
  SessionOptions ToSessionOptions() const;
};

/// \brief Declarative configuration of `icewafl_cli serve` — one JSON
/// document (or the equivalent flag set) naming the sessions to host
/// and how to serve them:
/// \code{.json}
/// {"sessions": [{"name": "alpha", "scenario": "random_temporal",
///                "seed": 42, "parallelism": 1, "min_subscribers": 1,
///                "max_runs": 0, "cleaner": {...}}],
///  "host": "127.0.0.1", "port": 0, "admin_port": -1, "workers": 2,
///  "queue_capacity": 256, "slow_consumer": "block"}
/// \endcode
struct ServeConfig {
  std::vector<SessionConfig> sessions;
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port (printed at startup).
  uint16_t port = 0;
  /// Admin channel port: -1 disables the channel (default), 0 binds an
  /// ephemeral port (printed at startup like the serve port).
  int admin_port = -1;
  /// Worker-pool size driving all sessions' pipelines.
  int workers = 2;
  size_t queue_capacity = 256;
  SlowConsumerPolicy slow_consumer = SlowConsumerPolicy::kBlock;

  /// \brief Parses a serve document — the one checker of its rules, so
  /// `icewafl_cli lint`, `serve`, and `admin create_session` agree by
  /// construction. Every finding goes into `diags` (when non-null) with
  /// a JSON pointer (full table in DESIGN.md section 6):
  ///  - IW601 (error): port / admin_port not an integer in [0, 65535];
  ///  - IW602 (error): slow_consumer not a policy name;
  ///  - IW603 (error): queue_capacity not an integer >= 1;
  ///  - IW604 (warning): unknown key (likely a typo);
  ///  - IW605 (error): a session's scenario missing, or not in
  ///    `known_scenarios` (an empty vector skips the membership check);
  ///  - IW606 (error): seed / max_runs not an integer >= 0, parallelism
  ///    / min_subscribers not an integer >= 1, a non-string host;
  ///  - IW607 (error): session name empty, longer than
  ///    kMaxSessionIdBytes, non-string, or duplicated across entries;
  ///  - IW608 (error): malformed shape — not an object, "sessions" not a
  ///    non-empty array, an entry not an object, or a top-level
  ///    "scenario" (the retired single-session shape);
  ///  - IW609 (error): workers not an integer >= 1;
  ///  - IW615 (error): session name containing ASCII control characters.
  /// Integer keys past their field's C++ type are rejected, never
  /// truncated. An entry's "cleaner" goes through clean::RulesFromJson,
  /// its findings rooted at /sessions/<i>/cleaner. Fails — carrying the
  /// report — only if an error was reported.
  static Result<ServeConfig> FromJson(
      const Json& json, const std::vector<std::string>& known_scenarios = {},
      Diagnostics* diags = nullptr);

/// \brief Canonical JSON form (always the `sessions` array shape).
  Json ToJson() const;

  /// \brief Server-wide options for this config; `metrics` may be null.
  ServerOptions ToServerOptions(obs::MetricRegistry* metrics) const;
};

}  // namespace net
}  // namespace icewafl

#endif  // ICEWAFL_NET_SERVE_CONFIG_H_
