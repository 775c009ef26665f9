#ifndef ICEWAFL_NET_ADMIN_H_
#define ICEWAFL_NET_ADMIN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/plan.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "util/json.h"
#include "util/result.h"
#include "util/sync.h"

namespace icewafl {
namespace net {

/// \file
/// The live control plane of a PollutionServer (DESIGN.md section 14):
/// a JSON-RPC-style request/response channel on its own TCP port,
/// speaking AdminRequest/AdminResponse frames over the same
/// length-prefixed codec as the data plane. Every mutation is
/// lint-gated: the request envelope through
/// analysis::AnalyzeAdminRequest, swapped pipeline documents through the
/// compile_swap hook, which the CLI backs with analysis::AnalyzePipeline
/// — a statically broken config is rejected with the full Diagnostics
/// JSON before any session state changes.

/// \brief The admin method vocabulary, in documentation order:
/// list_sessions, get_config, swap_pipeline, set_rate, stop_session,
/// create_session, get_metrics, set_cleaner.
const std::vector<std::string>& AdminMethodNames();

/// \brief Compilation hooks the admin server dispatches mutations
/// through. The server core stays scenario-free; the CLI installs hooks
/// that compile via scenarios::BuildScenarioPlan /
/// BuildPlanFromPipelineJson. A null hook rejects the method as
/// unsupported.
struct AdminHooks {
  /// Compiles swap_pipeline params (a "pipeline" document or a
  /// "scenario" name) into an unpublished snapshot derived from
  /// `current`. On a lint rejection the hook fills `*diagnostics` with
  /// the Diagnostics JSON and returns InvalidArgument carrying the
  /// report.
  std::function<Result<std::shared_ptr<PlanSnapshot>>(
      const PlanSnapshot& current, const Json& params, Json* diagnostics)>
      compile_swap;
  /// Creates a new session from create_session params (a serve-config
  /// "session" entry object), same diagnostics contract.
  std::function<Status(const Json& params, Json* diagnostics)> create_session;
  /// Compiles set_cleaner params ({"rules": <cleaning document>} to
  /// install, {"rules": null} to remove) into an unpublished snapshot
  /// derived from `current`, lint-gating the document against the
  /// session's schema — same diagnostics contract as compile_swap. The
  /// cutover is run-atomic like a pipeline swap: in-flight segments
  /// finish under the old cleaner, the next segment uses the new one.
  std::function<Result<std::shared_ptr<PlanSnapshot>>(
      const PlanSnapshot& current, const Json& params, Json* diagnostics)>
      compile_cleaner;
  /// Scenario vocabulary for linting swap_pipeline {"scenario": ...}
  /// requests (scenarios::ScenarioNames()); empty skips the check.
  std::vector<std::string> known_scenarios;
};

struct AdminOptions {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port (see AdminServer::port()).
  uint16_t port = 0;
  int backlog = 8;
};

/// \brief The admin channel endpoint: one accept-loop thread plus one
/// blocking thread per connection (admin traffic is a handful of
/// concurrent CLIs, not a fan-out path — the data plane's reactor stays
/// untouched). Each AdminRequest frame carries one JSON object
/// {"id", "method", "params"} and is answered in order with one
/// AdminResponse frame {"id", "result"} or {"id", "error": {"code",
/// "message", "diagnostics"?}}.
///
/// Locking: `mu_` (kLockRankAdmin) only guards the connection registry
/// and lifecycle flags, and is never held while calling into the
/// PollutionServer — its rank sits *above* the registry lock purely so
/// the rank checker would catch a future inversion.
class AdminServer {
 public:
  /// `server` and `metrics` are borrowed, not owned; `metrics` may be
  /// null (get_metrics then reports an error).
  AdminServer(PollutionServer* server, obs::MetricRegistry* metrics,
              AdminOptions options = {}, AdminHooks hooks = {});
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// \brief Binds, listens, and spawns the accept thread.
  Status Start() EXCLUDES(mu_);

  /// \brief Stops accepting, wakes every blocked connection read, and
  /// joins all threads. Idempotent.
  void Stop() EXCLUDES(mu_);

  /// \brief The actually bound port (differs from options.port when 0).
  uint16_t port() const { return port_; }

  /// \brief Dispatches one request document exactly as a wire request
  /// would be (lint gate included) and returns the full response
  /// object. Public for in-process tests and embedders.
  Json Handle(const Json& request);

 private:
  struct AdminConn {
    UniqueFd fd;
    std::thread thread;
  };

  void AcceptLoop() EXCLUDES(mu_);
  void ServeConn(AdminConn* conn) EXCLUDES(mu_);

  Json Dispatch(const std::string& method, const Json& params);
  Json DoListSessions();
  Json DoGetConfig(const Json& params);
  Json DoSwapPipeline(const Json& params);
  Json DoSetRate(const Json& params);
  Json DoStopSession(const Json& params);
  Json DoCreateSession(const Json& params);
  Json DoGetMetrics();
  Json DoSetCleaner(const Json& params);

  PollutionServer* const server_;
  obs::MetricRegistry* const metrics_;
  const AdminOptions options_;
  const AdminHooks hooks_;

  UniqueFd listen_fd_;
  WakePipe wake_;
  uint16_t port_ = 0;

  /// Rank 5: above every other lock in the process — never held across
  /// PollutionServer or metrics calls.
  mutable Mutex mu_{kLockRankAdmin};
  bool started_ GUARDED_BY(mu_) = false;
  bool stopping_ GUARDED_BY(mu_) = false;
  std::vector<std::unique_ptr<AdminConn>> conns_ GUARDED_BY(mu_);

  std::thread accept_thread_;
};

/// \brief Blocking admin-channel client: one connection, sequential
/// Call()s with auto-assigned numeric ids.
class AdminClient {
 public:
  static Result<std::unique_ptr<AdminClient>> Connect(const std::string& host,
                                                      uint16_t port);

  /// \brief Sends {"id", "method", "params"} and returns the full
  /// response object (the caller inspects "result" vs "error"); IOError
  /// only for transport failures or a response id mismatch.
  Result<Json> Call(const std::string& method, const Json& params);

 private:
  AdminClient(UniqueFd fd, std::string peer)
      : fd_(std::move(fd)), peer_(std::move(peer)) {}

  UniqueFd fd_;
  std::string peer_;
  FrameDecoder decoder_;
  int64_t next_id_ = 1;
};

}  // namespace net
}  // namespace icewafl

#endif  // ICEWAFL_NET_ADMIN_H_
