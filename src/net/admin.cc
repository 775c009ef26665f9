#include "net/admin.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <utility>

#include "analysis/analyzer.h"

namespace icewafl {
namespace net {

namespace {

/// The response "id" echoes the request's (or null when absent/bad).
Json RequestId(const Json& request) {
  if (request.is_object() && request.Has("id")) {
    const Json id = request.Get("id").ValueOrDie();
    if (id.is_number() || id.is_string()) return id;
  }
  return Json();
}

/// {"error": {"code", "message"[, "diagnostics"]}} response body.
Json ErrorBody(const std::string& code, const std::string& message,
               Json diagnostics = Json()) {
  Json error = Json::MakeObject();
  error.Set("code", Json(code));
  error.Set("message", Json(message));
  if (diagnostics.is_object()) {
    error.Set("diagnostics", std::move(diagnostics));
  }
  Json body = Json::MakeObject();
  body.Set("error", std::move(error));
  return body;
}

Json ErrorBody(const Status& status, Json diagnostics = Json()) {
  return ErrorBody(StatusCodeName(status.code()), status.message(),
                   std::move(diagnostics));
}

Json ResultBody(Json result) {
  Json body = Json::MakeObject();
  body.Set("result", std::move(result));
  return body;
}

Json SessionInfoToJson(const SessionInfo& info) {
  Json json = Json::MakeObject();
  json.Set("id", Json(info.id));
  json.Set("scenario", Json(info.scenario));
  json.Set("state", Json(info.state));
  json.Set("runs", Json(static_cast<int64_t>(info.runs)));
  json.Set("waiting_subscribers",
           Json(static_cast<int64_t>(info.waiting_subscribers)));
  json.Set("plan_version", Json(static_cast<int64_t>(info.plan_version)));
  json.Set("plan_swaps", Json(static_cast<int64_t>(info.plan_swaps)));
  Json segments = Json::MakeArray();
  for (const PlanSegment& segment : info.segments) {
    Json entry = Json::MakeObject();
    entry.Set("version", Json(static_cast<int64_t>(segment.version)));
    entry.Set("start_row", Json(static_cast<int64_t>(segment.start_row)));
    segments.Append(std::move(entry));
  }
  json.Set("segments", std::move(segments));
  return json;
}

}  // namespace

const std::vector<std::string>& AdminMethodNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "list_sessions", "get_config",   "swap_pipeline", "set_rate",
      "stop_session",  "create_session", "get_metrics", "set_cleaner",
  };
  return *names;
}

AdminServer::AdminServer(PollutionServer* server, obs::MetricRegistry* metrics,
                         AdminOptions options, AdminHooks hooks)
    : server_(server),
      metrics_(metrics),
      options_(std::move(options)),
      hooks_(std::move(hooks)) {}

AdminServer::~AdminServer() { Stop(); }

Status AdminServer::Start() {
  {
    MutexLock lock(&mu_);
    if (started_) return Status::InvalidArgument("admin server already started");
    started_ = true;
  }
  ICEWAFL_ASSIGN_OR_RETURN(
      listen_fd_, ListenTcp(options_.host, options_.port, options_.backlog,
                            &port_));
  ICEWAFL_ASSIGN_OR_RETURN(wake_, WakePipe::Make());
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void AdminServer::Stop() {
  {
    MutexLock lock(&mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
  }
  wake_.Poke();
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_.Reset();
  // The accept loop has exited, so conns_ is stable: wake every blocked
  // per-connection read, then join.
  std::vector<std::unique_ptr<AdminConn>> conns;
  {
    MutexLock lock(&mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->fd.valid()) ::shutdown(conn->fd.get(), SHUT_RDWR);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void AdminServer::AcceptLoop() {
  while (true) {
    struct pollfd fds[2];
    fds[0].fd = listen_fd_.get();
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = wake_.read_end.get();
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    {
      MutexLock lock(&mu_);
      if (stopping_) return;
    }
    if (fds[1].revents != 0) wake_.Drain();
    if ((fds[0].revents & POLLIN) == 0) continue;
    while (true) {
      const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN on the non-blocking listen socket: drained
      }
      // Accepted sockets do not inherit O_NONBLOCK; the per-connection
      // thread reads blocking.
      auto conn = std::make_unique<AdminConn>();
      conn->fd = UniqueFd(fd);
      AdminConn* raw = conn.get();
      MutexLock lock(&mu_);
      if (stopping_) break;  // fd closes with `conn`
      conns_.push_back(std::move(conn));
      raw->thread = std::thread([this, raw] { ServeConn(raw); });
    }
  }
}

void AdminServer::ServeConn(AdminConn* conn) {
  FrameDecoder decoder;
  while (true) {
    uint8_t type = 0;
    std::string payload;
    Result<bool> read = ReadFrame(conn->fd.get(), &decoder, &type, &payload);
    if (!read.ok() || !read.ValueOrDie()) return;
    Json body;
    if (type != kFrameAdminRequest) {
      body = ErrorBody("ParseError",
                       "expected an AdminRequest frame, got type " +
                           std::to_string(static_cast<int>(type)));
      body.Set("id", Json());
    } else {
      Result<Json> request = Json::Parse(payload);
      if (!request.ok()) {
        body = ErrorBody("ParseError", request.status().message());
        body.Set("id", Json());
      } else {
        body = Handle(request.ValueOrDie());
      }
    }
    std::string out;
    AppendFrame(kFrameAdminResponse, body.Dump(), &out);
    if (!SendAll(conn->fd.get(), out).ok()) return;
  }
}

Json AdminServer::Handle(const Json& request) {
  analysis::AdminAnalyzeOptions lint;
  lint.known_methods = AdminMethodNames();
  lint.known_scenarios = hooks_.known_scenarios;
  const Diagnostics diags = analysis::AnalyzeAdminRequest(request, lint);
  Json response;
  if (diags.HasErrors()) {
    // The gate: a malformed or unknown request never reaches dispatch.
    std::string code = "IW610";
    std::string message = "invalid admin request";
    for (const Diagnostic& diag : diags.items()) {
      if (diag.severity == DiagSeverity::kError) {
        code = diag.code;
        message = diag.message;
        break;
      }
    }
    response = ErrorBody(code, message, diags.ToJson());
  } else {
    Json params = Json::MakeObject();
    if (request.Has("params")) params = request.Get("params").ValueOrDie();
    response = Dispatch(request.GetString("method", ""), params);
    if (!diags.empty() && response.Has("result")) {
      // Surface lint warnings (e.g. IW604 typos) next to the result.
      response.Set("diagnostics", diags.ToJson());
    }
  }
  response.Set("id", RequestId(request));
  return response;
}

Json AdminServer::Dispatch(const std::string& method, const Json& params) {
  if (method == "list_sessions") return DoListSessions();
  if (method == "get_config") return DoGetConfig(params);
  if (method == "swap_pipeline") return DoSwapPipeline(params);
  if (method == "set_rate") return DoSetRate(params);
  if (method == "stop_session") return DoStopSession(params);
  if (method == "create_session") return DoCreateSession(params);
  if (method == "get_metrics") return DoGetMetrics();
  if (method == "set_cleaner") return DoSetCleaner(params);
  return ErrorBody("IW611", "unknown method '" + method + "'");
}

Json AdminServer::DoListSessions() {
  Json sessions = Json::MakeArray();
  for (const SessionInfo& info : server_->ListSessions()) {
    sessions.Append(SessionInfoToJson(info));
  }
  Json result = Json::MakeObject();
  result.Set("sessions", std::move(sessions));
  return ResultBody(std::move(result));
}

Json AdminServer::DoGetConfig(const Json& params) {
  const std::string id = params.GetString("session", "");
  Result<PlanPtr> plan = server_->session_plan(id);
  if (!plan.ok()) return ErrorBody(plan.status());
  if (plan.ValueOrDie() == nullptr) {
    return ErrorBody("NotFound",
                     "session '" + id + "' is not plan-driven");
  }
  const PlanSnapshot& snapshot = *plan.ValueOrDie();
  Json result = Json::MakeObject();
  result.Set("session", Json(id));
  result.Set("scenario", Json(snapshot.scenario));
  result.Set("plan_version", Json(static_cast<int64_t>(snapshot.version)));
  result.Set("seed", Json(static_cast<int64_t>(snapshot.seed)));
  result.Set("parallelism", Json(static_cast<int64_t>(snapshot.parallelism)));
  result.Set("tuples_per_sec", Json(snapshot.tuples_per_sec));
  result.Set("pipeline", snapshot.config);
  result.Set("cleaner", snapshot.cleaner);
  return ResultBody(std::move(result));
}

Json AdminServer::DoSwapPipeline(const Json& params) {
  const std::string id = params.GetString("session", "");
  if (!hooks_.compile_swap) {
    return ErrorBody("NotImplemented",
                     "this admin endpoint has no swap compiler installed");
  }
  Result<PlanPtr> current = server_->session_plan(id);
  if (!current.ok()) return ErrorBody(current.status());
  if (current.ValueOrDie() == nullptr) {
    return ErrorBody("NotFound", "session '" + id + "' is not plan-driven");
  }
  Json diagnostics;
  Result<std::shared_ptr<PlanSnapshot>> next =
      hooks_.compile_swap(*current.ValueOrDie(), params, &diagnostics);
  if (!next.ok()) return ErrorBody(next.status(), std::move(diagnostics));
  Status swapped = server_->SwapPlan(id, next.ValueOrDie());
  if (!swapped.ok()) return ErrorBody(swapped);
  Json result = Json::MakeObject();
  result.Set("session", Json(id));
  result.Set("plan_version",
             Json(static_cast<int64_t>(next.ValueOrDie()->version)));
  return ResultBody(std::move(result));
}

Json AdminServer::DoSetRate(const Json& params) {
  const std::string id = params.GetString("session", "");
  const double rate = params.Get("tuples_per_sec").ValueOrDie().AsDouble();
  Status updated = server_->UpdateSession(
      id, [rate](PlanSnapshot* plan) { plan->tuples_per_sec = rate; });
  if (!updated.ok()) return ErrorBody(updated);
  Result<SessionInfo> info = server_->session_info(id);
  Json result = Json::MakeObject();
  result.Set("session", Json(id));
  result.Set("tuples_per_sec", Json(rate));
  if (info.ok()) {
    result.Set("plan_version",
               Json(static_cast<int64_t>(info.ValueOrDie().plan_version)));
  }
  return ResultBody(std::move(result));
}

Json AdminServer::DoStopSession(const Json& params) {
  const std::string id = params.GetString("session", "");
  Status stopped = server_->StopSession(id);
  if (!stopped.ok()) return ErrorBody(stopped);
  Json result = Json::MakeObject();
  result.Set("session", Json(id));
  result.Set("stopped", Json(true));
  return ResultBody(std::move(result));
}

Json AdminServer::DoCreateSession(const Json& params) {
  if (!hooks_.create_session) {
    return ErrorBody("NotImplemented",
                     "this admin endpoint has no session factory installed");
  }
  Json diagnostics;
  Status created = hooks_.create_session(params, &diagnostics);
  if (!created.ok()) return ErrorBody(created, std::move(diagnostics));
  Json result = Json::MakeObject();
  result.Set("created", Json(true));
  if (params.Has("session") &&
      params.Get("session").ValueOrDie().is_object()) {
    result.Set("session",
               params.Get("session").ValueOrDie().GetString("name", ""));
  }
  return ResultBody(std::move(result));
}

Json AdminServer::DoSetCleaner(const Json& params) {
  const std::string id = params.GetString("session", "");
  if (!hooks_.compile_cleaner) {
    return ErrorBody("NotImplemented",
                     "this admin endpoint has no cleaner compiler installed");
  }
  Result<PlanPtr> current = server_->session_plan(id);
  if (!current.ok()) return ErrorBody(current.status());
  if (current.ValueOrDie() == nullptr) {
    return ErrorBody("NotFound", "session '" + id + "' is not plan-driven");
  }
  Json diagnostics;
  Result<std::shared_ptr<PlanSnapshot>> next =
      hooks_.compile_cleaner(*current.ValueOrDie(), params, &diagnostics);
  if (!next.ok()) return ErrorBody(next.status(), std::move(diagnostics));
  Status swapped = server_->SwapPlan(id, next.ValueOrDie());
  if (!swapped.ok()) return ErrorBody(swapped);
  Json result = Json::MakeObject();
  result.Set("session", Json(id));
  result.Set("plan_version",
             Json(static_cast<int64_t>(next.ValueOrDie()->version)));
  result.Set("cleaning", Json(!next.ValueOrDie()->cleaner.is_null()));
  return ResultBody(std::move(result));
}

Json AdminServer::DoGetMetrics() {
  if (metrics_ == nullptr) {
    return ErrorBody("NotFound", "this server exports no metrics registry");
  }
  Json result = Json::MakeObject();
  result.Set("text", Json(metrics_->ToPrometheusText()));
  return ResultBody(std::move(result));
}

Result<std::unique_ptr<AdminClient>> AdminClient::Connect(
    const std::string& host, uint16_t port) {
  ICEWAFL_ASSIGN_OR_RETURN(UniqueFd fd, ConnectTcp(host, port));
  const std::string peer = host + ":" + std::to_string(port);
  return std::unique_ptr<AdminClient>(new AdminClient(std::move(fd), peer));
}

Result<Json> AdminClient::Call(const std::string& method, const Json& params) {
  const int64_t id = next_id_++;
  Json request = Json::MakeObject();
  request.Set("id", Json(id));
  request.Set("method", Json(method));
  request.Set("params", params.is_object() ? params : Json::MakeObject());
  std::string out;
  AppendFrame(kFrameAdminRequest, request.Dump(), &out);
  ICEWAFL_RETURN_NOT_OK(SendAll(fd_.get(), out));
  uint8_t type = 0;
  std::string payload;
  ICEWAFL_ASSIGN_OR_RETURN(const bool have,
                           ReadFrame(fd_.get(), &decoder_, &type, &payload));
  if (!have) {
    return Status::IOError("admin " + peer_ +
                           ": connection closed before a response");
  }
  if (type != kFrameAdminResponse) {
    return Status::ParseError("admin " + peer_ +
                              ": expected an AdminResponse frame, got type " +
                              std::to_string(static_cast<int>(type)));
  }
  ICEWAFL_ASSIGN_OR_RETURN(Json response, Json::Parse(payload));
  if (response.GetInt("id", -1) != id) {
    return Status::ParseError("admin " + peer_ + ": response id mismatch");
  }
  return response;
}

}  // namespace net
}  // namespace icewafl
