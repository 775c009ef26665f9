#include "net/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/wire.h"

namespace icewafl {
namespace net {

namespace {

/// Upper bound on a connection's write buffer before the reactor stops
/// refilling it from the frame queue (backpressure then builds in the
/// bounded queue, where the slow-consumer policy applies).
constexpr size_t kMaxOutbufBytes = 256 * 1024;

/// Grace period for flushing connected subscribers during Wait(); an
/// unresponsive peer cannot hold shutdown hostage forever.
constexpr std::chrono::seconds kDrainGrace(10);

const std::vector<std::string> kPolicyNames = {"block", "drop_oldest",
                                               "disconnect"};

}  // namespace

const char* SlowConsumerPolicyName(SlowConsumerPolicy policy) {
  switch (policy) {
    case SlowConsumerPolicy::kBlock:
      return "block";
    case SlowConsumerPolicy::kDropOldest:
      return "drop_oldest";
    case SlowConsumerPolicy::kDisconnect:
      return "disconnect";
  }
  return "unknown";
}

Result<SlowConsumerPolicy> SlowConsumerPolicyFromName(
    const std::string& name) {
  if (name == "block") return SlowConsumerPolicy::kBlock;
  if (name == "drop_oldest") return SlowConsumerPolicy::kDropOldest;
  if (name == "disconnect") return SlowConsumerPolicy::kDisconnect;
  return Status::InvalidArgument(
      "unknown slow-consumer policy '" + name +
      "' (expected block, drop_oldest, or disconnect)");
}

const std::vector<std::string>& SlowConsumerPolicyNames() {
  return kPolicyNames;
}

// ---------------------------------------------------------------------
// Fan-out sink: runs on a worker thread inside the pipeline runtime.
// ---------------------------------------------------------------------

class PollutionServer::FanoutSink : public Sink {
 public:
  FanoutSink(PollutionServer* server, Session* session,
             std::vector<ConnPtr> subscribers)
      : server_(server),
        session_(session),
        subscribers_(std::move(subscribers)),
        open_(subscribers_.size(), true),
        wants_batch_(subscribers_.size(), false),
        batch_rows_(std::max<size_t>(1, server->options_.batch_rows)) {
    // The capability split is fixed for the whole run: the hello set
    // batch_frames before the subscriber could join a run's snapshot.
    for (size_t i = 0; i < subscribers_.size(); ++i) {
      MutexLock lock(&subscribers_[i]->mu);
      wants_batch_[i] = subscribers_[i]->batch_frames;
      has_batch_ = has_batch_ || wants_batch_[i];
      has_tuple_ = has_tuple_ || !wants_batch_[i];
    }
  }

  using Sink::Write;

  Status Write(const Tuple& tuple) override {
    // Two short stop-flag probes, taken one after the other (never
    // nested): the server-wide flag under the registry lock, the
    // session flag under its own.
    {
      MutexLock lock(&server_->mu_);
      if (server_->stop_requested_) {
        return Status::IOError("server stopping");
      }
    }
    {
      MutexLock lock(&session_->mu);
      if (session_->stop_requested) {
        return Status::IOError("session '" + session_->id + "' stopped");
      }
    }
    if (has_tuple_) {
      // Encode once; every tuple subscriber queue shares the frame.
      auto frame =
          std::make_shared<const std::string>(EncodeTupleFrame(tuple));
      for (size_t i = 0; i < subscribers_.size(); ++i) {
        if (!open_[i] || wants_batch_[i]) continue;
        if (server_->EnqueueFrame(subscribers_[i], frame,
                                  session_->metrics)) {
          if (session_->metrics.tuples_sent != nullptr) {
            session_->metrics.tuples_sent->Increment();
          }
        } else {
          open_[i] = false;  // disconnected or cut by policy
        }
      }
    }
    if (has_batch_) {
      pending_.push_back(tuple);
      if (pending_.size() >= batch_rows_) {
        ICEWAFL_RETURN_NOT_OK(FlushBatch());
      }
    }
    ++count_;
    return Status::OK();
  }

  /// \brief Fans out the buffered rows to batch subscribers as one
  /// encode-once Batch frame. Falls back to per-tuple frames when the
  /// rows cannot be columnarized (mixed schemas) or the batch payload
  /// would exceed the frame limit — subscribers accept both kinds.
  /// RunSession calls this once more for the trailing partial batch.
  Status FlushBatch() {
    if (pending_.empty()) return Status::OK();
    std::shared_ptr<const std::string> frame;
    Result<Batch> transposed = Batch::FromTuples(pending_);
    if (transposed.ok()) {
      std::string payload = EncodeBatchPayload(transposed.ValueOrDie());
      if (payload.size() <= kMaxFramePayload) {
        std::string bytes;
        bytes.reserve(payload.size() + 11);
        bytes.push_back(static_cast<char>(kFrameBatch));
        AppendVarint(payload.size(), &bytes);
        bytes.append(payload);
        frame = std::make_shared<const std::string>(std::move(bytes));
      }
    }
    for (size_t i = 0; i < subscribers_.size(); ++i) {
      if (!open_[i] || !wants_batch_[i]) continue;
      if (frame != nullptr) {
        if (server_->EnqueueFrame(subscribers_[i], frame,
                                  session_->metrics)) {
          if (session_->metrics.tuples_sent != nullptr) {
            session_->metrics.tuples_sent->Increment(pending_.size());
          }
          if (session_->metrics.batches_sent != nullptr) {
            session_->metrics.batches_sent->Increment();
          }
        } else {
          open_[i] = false;
        }
        continue;
      }
      for (const Tuple& t : pending_) {
        auto tf = std::make_shared<const std::string>(EncodeTupleFrame(t));
        if (!server_->EnqueueFrame(subscribers_[i], tf, session_->metrics)) {
          open_[i] = false;
          break;
        }
        if (session_->metrics.tuples_sent != nullptr) {
          session_->metrics.tuples_sent->Increment();
        }
      }
    }
    pending_.clear();
    return Status::OK();
  }

  /// \brief Tuples the run produced (End-frame payload).
  uint64_t count() const { return count_; }

  const std::vector<ConnPtr>& subscribers() const { return subscribers_; }
  bool open(size_t i) const { return open_[i]; }

 private:
  PollutionServer* server_;
  Session* session_;
  std::vector<ConnPtr> subscribers_;
  std::vector<bool> open_;
  std::vector<bool> wants_batch_;
  bool has_batch_ = false;
  bool has_tuple_ = false;
  const size_t batch_rows_;
  TupleVector pending_;
  uint64_t count_ = 0;
};

// ---------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------

PollutionServer::PollutionServer(ServerOptions options)
    : options_(std::move(options)) {}

PollutionServer::~PollutionServer() {
  RequestStop();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (reactor_thread_.joinable()) reactor_thread_.join();
}

Status PollutionServer::AddSession(const std::string& id, SchemaPtr schema,
                                   SessionFn fn, SessionOptions options) {
  if (id.empty()) {
    return Status::InvalidArgument("session id must not be empty");
  }
  if (id.size() > kMaxSessionIdBytes) {
    return Status::InvalidArgument(
        "session id of " + std::to_string(id.size()) +
        " bytes exceeds the limit of " + std::to_string(kMaxSessionIdBytes));
  }
  if (schema == nullptr && options.plan != nullptr) {
    schema = options.plan->schema;  // plan-driven convenience
  }
  if (schema == nullptr) {
    return Status::InvalidArgument("session '" + id + "' needs a schema");
  }
  if (fn == nullptr) {
    return Status::InvalidArgument("session '" + id + "' needs a session fn");
  }
  if (options.min_subscribers < 1) options.min_subscribers = 1;
  // Built unpublished (no lock needed); pushing into sessions_ under the
  // registry lock is the publication edge.
  auto session = std::make_shared<Session>();
  session->id = id;
  session->schema = std::move(schema);
  session->fn = std::move(fn);
  session->schema_frame = EncodeSchemaFrame(*session->schema);
  session->metrics = obs::SessionMetrics::Bind(options_.metrics, id);
  if (options.plan != nullptr) {
    std::shared_ptr<PlanSnapshot> plan = std::move(options.plan);
    if (plan->schema == nullptr ||
        EncodeSchemaFrame(*plan->schema) != session->schema_frame) {
      return Status::InvalidArgument(
          "session '" + id + "': the initial plan's schema differs from "
          "the session schema");
    }
    plan->version = 1;
    plan->published_at = std::chrono::steady_clock::now();
    if (session->metrics.plan_version != nullptr) {
      session->metrics.plan_version->Set(1.0);
    }
    // The session is unpublished, so its lock is not yet contended;
    // the analysis still wants the capability held.
    MutexLock plan_lock(&session->mu);
    session->plan = std::move(plan);
  }
  session->options = std::move(options);
  {
    MutexLock lock(&mu_);
    if (stop_requested_ || draining_) {
      return Status::IOError("server is shutting down");
    }
    for (const SessionPtr& s : sessions_) {
      if (s->id == id) {
        return Status::AlreadyExists("session '" + id + "' already exists");
      }
    }
    sessions_.push_back(std::move(session));
  }
  return Status::OK();
}

PollutionServer::SessionPtr PollutionServer::FindSessionLocked(
    const std::string& id) const {
  for (const SessionPtr& s : sessions_) {
    if (s->id == id) return s;
  }
  return nullptr;
}

Status PollutionServer::StopSession(const std::string& id) {
  {
    MutexLock lock(&mu_);
    SessionPtr session = FindSessionLocked(id);
    if (session == nullptr) {
      return Status::NotFound("no session named '" + id + "'");
    }
    // Stopping is a state transition, so it holds registry + session.
    MutexLock session_lock(&session->mu);
    if (session->state == Session::State::kRetired) return Status::OK();
    session->stop_requested = true;
    if (session->state == Session::State::kWaiting ||
        session->state == Session::State::kQueued) {
      // A queued entry stays in run_queue_; the worker that pops it
      // skips it because the state is no longer kQueued.
      RetireLocked(session, "session '" + id + "' stopped");
    }
    // kRunning: the worker's sink aborts at its next Write and the run
    // epilogue retires the session.
  }
  cv_.NotifyAll();
  wake_.Poke();
  return Status::OK();
}

// ---------------------------------------------------------------------
// Plan control plane (SwapPlan / UpdateSession / introspection)
// ---------------------------------------------------------------------

Status PollutionServer::PublishPlanLocked(const SessionPtr& session,
                                          std::shared_ptr<PlanSnapshot> next) {
  if (session->state == Session::State::kRetired) {
    return Status::IOError("session '" + session->id + "' has ended");
  }
  if (session->plan == nullptr) {
    return Status::InvalidArgument("session '" + session->id +
                                   "' is not plan-driven");
  }
  if (next == nullptr) {
    return Status::InvalidArgument("no plan snapshot to publish");
  }
  // Subscribers hold the Schema frame from their handshake; a swap must
  // never change the wire schema mid-stream. Comparing the encoded
  // frames compares the schemas structurally.
  if (next->schema == nullptr ||
      EncodeSchemaFrame(*next->schema) != session->schema_frame) {
    return Status::InvalidArgument(
        "session '" + session->id +
        "': the new plan's schema differs from the session schema");
  }
  next->version = session->plan->version + 1;
  next->published_at = std::chrono::steady_clock::now();
  if (session->metrics.plan_version != nullptr) {
    session->metrics.plan_version->Set(static_cast<double>(next->version));
  }
  if (session->metrics.plan_swaps != nullptr) {
    session->metrics.plan_swaps->Increment();
  }
  session->plan = std::move(next);  // freeze: PlanSnapshot -> const
  ++session->plan_swaps;
  return Status::OK();
}

Status PollutionServer::SwapPlan(const std::string& id,
                                 std::shared_ptr<PlanSnapshot> next) {
  MutexLock lock(&mu_);
  SessionPtr session = FindSessionLocked(id);
  if (session == nullptr) {
    return Status::NotFound("no session named '" + id + "'");
  }
  MutexLock session_lock(&session->mu);
  return PublishPlanLocked(session, std::move(next));
}

Status PollutionServer::UpdateSession(
    const std::string& id, const std::function<void(PlanSnapshot*)>& mutate) {
  if (mutate == nullptr) {
    return Status::InvalidArgument("UpdateSession needs a mutate fn");
  }
  MutexLock lock(&mu_);
  SessionPtr session = FindSessionLocked(id);
  if (session == nullptr) {
    return Status::NotFound("no session named '" + id + "'");
  }
  MutexLock session_lock(&session->mu);
  if (session->plan == nullptr) {
    return Status::InvalidArgument("session '" + id + "' is not plan-driven");
  }
  std::shared_ptr<PlanSnapshot> next = ClonePlan(*session->plan);
  mutate(next.get());
  return PublishPlanLocked(session, std::move(next));
}

void PollutionServer::OnSegment(Session* session, const PlanSegment& segment) {
  double latency = -1.0;
  obs::Histogram* histogram = nullptr;
  {
    MutexLock lock(&session->mu);
    session->segments.push_back(segment);
    if (segment.version > session->adopted_version) {
      // First adoption of this version. Initial plans (version 1) are
      // adopted with their first run, not swapped in — only published
      // successors measure a swap latency.
      if (session->adopted_version != 0 && session->plan != nullptr &&
          session->plan->version == segment.version) {
        latency = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() -
                      session->plan->published_at)
                      .count();
        histogram = session->metrics.swap_latency;
      }
      session->adopted_version = segment.version;
    }
  }
  if (histogram != nullptr && latency >= 0) histogram->Observe(latency);
}

Result<SessionInfo> PollutionServer::session_info(const std::string& id) const {
  MutexLock lock(&mu_);
  SessionPtr session = FindSessionLocked(id);
  if (session == nullptr) {
    return Status::NotFound("no session named '" + id + "'");
  }
  SessionInfo info;
  info.id = session->id;
  MutexLock session_lock(&session->mu);
  switch (session->state) {
    case Session::State::kWaiting:
      info.state = "waiting";
      break;
    case Session::State::kQueued:
      info.state = "queued";
      break;
    case Session::State::kRunning:
      info.state = "running";
      break;
    case Session::State::kRetired:
      info.state = "retired";
      break;
  }
  info.runs = session->runs;
  info.waiting_subscribers = static_cast<int>(session->waiting.size());
  if (session->plan != nullptr) {
    info.scenario = session->plan->scenario;
    info.plan_version = session->plan->version;
  }
  info.plan_swaps = session->plan_swaps;
  info.segments = session->segments;
  return info;
}

std::vector<SessionInfo> PollutionServer::ListSessions() const {
  std::vector<std::string> ids = session_ids();
  std::vector<SessionInfo> infos;
  infos.reserve(ids.size());
  for (const std::string& id : ids) {
    Result<SessionInfo> info = session_info(id);
    // A session cannot disappear from the registry, only retire.
    if (info.ok()) infos.push_back(std::move(info.ValueOrDie()));
  }
  return infos;
}

Result<PlanPtr> PollutionServer::session_plan(const std::string& id) const {
  MutexLock lock(&mu_);
  SessionPtr session = FindSessionLocked(id);
  if (session == nullptr) {
    return Status::NotFound("no session named '" + id + "'");
  }
  MutexLock session_lock(&session->mu);
  return session->plan;
}

Status PollutionServer::Start() {
  {
    MutexLock lock(&mu_);
    if (started_) return Status::AlreadyExists("server already started");
  }
  if (options_.queue_capacity < 1) options_.queue_capacity = 1;
  if (options_.workers < 1) options_.workers = 1;
  ICEWAFL_ASSIGN_OR_RETURN(wake_, WakePipe::Make());
  ICEWAFL_ASSIGN_OR_RETURN(
      listen_fd_,
      ListenTcp(options_.host, options_.port, options_.backlog, &port_));
  metrics_ = obs::ServerMetrics::Bind(options_.metrics);
  {
    MutexLock lock(&mu_);
    started_ = true;
    accepting_ = true;
  }
  reactor_thread_ = std::thread(&PollutionServer::ReactorLoop, this);
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back(&PollutionServer::WorkerLoop, this);
  }
  return Status::OK();
}

void PollutionServer::RequestStop() {
  {
    MutexLock lock(&mu_);
    stop_requested_ = true;
    accepting_ = false;
    for (const ConnPtr& c : conns_) c->queue->Poison();
  }
  cv_.NotifyAll();
  wake_.Poke();
}

Status PollutionServer::Wait() {
  {
    MutexLock lock(&mu_);
    while (true) {
      if (stop_requested_) break;
      if (!sessions_.empty()) {
        // Sessions are checked one at a time (never two session locks
        // at once); a transition cannot slip past the wait because it
        // holds the registry lock this loop sleeps under.
        bool all_retired = true;
        for (const SessionPtr& s : sessions_) {
          MutexLock session_lock(&s->mu);
          if (s->state != Session::State::kRetired) {
            all_retired = false;
            break;
          }
        }
        if (all_retired) break;
      }
      cv_.Wait(mu_);
    }
    draining_ = true;
    accepting_ = false;
    // Connections that never subscribed (or are racing the shutdown)
    // get a courteous error frame before being flushed and closed.
    auto bye = std::make_shared<const std::string>(
        EncodeErrorFrame("server shutting down"));
    for (const ConnPtr& c : conns_) {
      if (!c->queue->closed()) {
        (void)c->queue->TryPush({bye, std::chrono::steady_clock::now()});
        c->queue->Close();
      }
    }
  }
  cv_.NotifyAll();
  wake_.Poke();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (reactor_thread_.joinable()) reactor_thread_.join();
  MutexLock lock(&mu_);
  return first_error_;
}

size_t PollutionServer::clients_connected() const {
  MutexLock lock(&mu_);
  return conns_.size();
}

ChannelStats PollutionServer::frame_queue_stats() const {
  MutexLock lock(&mu_);
  // Channel locks rank below the registry lock, so sampling live
  // queues here stays inside the hierarchy.
  ChannelStats total = retired_queue_stats_;
  for (const ConnPtr& c : conns_) total.Add(c->queue->stats());
  return total;
}

std::vector<std::string> PollutionServer::session_ids() const {
  MutexLock lock(&mu_);
  std::vector<std::string> ids;
  ids.reserve(sessions_.size());
  for (const SessionPtr& s : sessions_) ids.push_back(s->id);
  return ids;
}

// ---------------------------------------------------------------------
// Session scheduling (worker pool)
// ---------------------------------------------------------------------

void PollutionServer::ScheduleReadyLocked() {
  for (const SessionPtr& s : sessions_) {
    MutexLock session_lock(&s->mu);
    if (s->state != Session::State::kWaiting || s->stop_requested) continue;
    if (static_cast<int>(s->waiting.size()) < s->options.min_subscribers) {
      continue;
    }
    s->state = Session::State::kQueued;
    run_queue_.push_back(s);
  }
}

void PollutionServer::RetireLocked(const SessionPtr& session,
                                   const std::string& reason) {
  session->state = Session::State::kRetired;
  if (session->waiting.empty()) return;
  auto bye = std::make_shared<const std::string>(EncodeErrorFrame(reason));
  for (const ConnPtr& conn : session->waiting) {
    // A waiting subscriber's queue is empty, so the push cannot be
    // rejected for capacity. Channel locks rank below session locks, so
    // enqueueing here respects the hierarchy.
    (void)conn->queue->TryPush({bye, std::chrono::steady_clock::now()});
    conn->queue->Close();
  }
  session->waiting.clear();
}

void PollutionServer::WorkerLoop() {
  while (true) {
    SessionPtr session;
    std::vector<ConnPtr> participants;
    {
      MutexLock lock(&mu_);
      while (!stop_requested_ && !draining_ && run_queue_.empty()) {
        cv_.Wait(mu_);
      }
      if (stop_requested_ || run_queue_.empty()) break;
      session = run_queue_.front();
      run_queue_.pop_front();
      MutexLock session_lock(&session->mu);
      // Retired while queued (StopSession raced the pop).
      if (session->state != Session::State::kQueued) continue;
      session->state = Session::State::kRunning;
      participants.swap(session->waiting);
      for (const ConnPtr& c : participants) {
        MutexLock conn_lock(&c->mu);
        c->in_run = true;
      }
    }
    RunSession(session, std::move(participants));
  }
}

void PollutionServer::RunSession(const SessionPtr& session,
                                 std::vector<ConnPtr> participants) {
  FanoutSink sink(this, session.get(), std::move(participants));
  // The run's plan view: the snapshot current at run start, a probe
  // for the newest one (polled by the serving runner at cutover
  // boundaries), and the segment-bookkeeping callback. The callbacks
  // capture the raw session pointer; `session` outlives the run (the
  // registry never erases sessions) and fn returns before this frame
  // unwinds.
  PlanContext ctx;
  {
    MutexLock session_lock(&session->mu);
    ctx.plan = session->plan;
    session->segments.clear();
  }
  if (ctx.plan != nullptr) {
    Session* raw = session.get();
    ctx.latest = [raw]() -> PlanPtr {
      MutexLock lock(&raw->mu);
      return raw->plan;
    };
    ctx.on_segment = [this, raw](const PlanSegment& segment) {
      OnSegment(raw, segment);
    };
  }
  Status status = session->fn(ctx, &sink);
  // Batch subscribers still hold a trailing partial batch.
  if (status.ok()) status = sink.FlushBatch();

  // Terminate every participating stream: End on success, Error on a
  // run failure, then close the queues so the reactor flushes and
  // hangs up. No server lock is held here.
  auto tail = std::make_shared<const std::string>(
      status.ok() ? EncodeEndFrame(sink.count())
                  : EncodeErrorFrame(status.ToString()));
  for (size_t i = 0; i < sink.subscribers().size(); ++i) {
    if (sink.open(i)) {
      (void)EnqueueFrame(sink.subscribers()[i], tail, session->metrics);
    }
    sink.subscribers()[i]->queue->Close();
  }
  wake_.Poke();

  {
    MutexLock lock(&mu_);
    bool done = false;
    {
      MutexLock session_lock(&session->mu);
      ++session->runs;
      if (session->metrics.runs != nullptr) session->metrics.runs->Increment();
      runs_completed_.fetch_add(1, std::memory_order_relaxed);
      // A stop-triggered abort (global or per-session) is not a failure.
      if (!status.ok() && !stop_requested_ && !session->stop_requested &&
          first_error_.ok()) {
        first_error_ = status;
      }
      done = session->stop_requested ||
             (session->options.max_runs != 0 &&
              session->runs >= session->options.max_runs);
      if (done) {
        RetireLocked(session, "session '" + session->id + "' has ended");
      } else {
        session->state = Session::State::kWaiting;
      }
    }
    // Late joiners may already satisfy min_subscribers. Runs after the
    // session lock is dropped: ScheduleReadyLocked locks candidate
    // sessions itself, and two session locks are never held at once.
    if (!done) ScheduleReadyLocked();
  }
  cv_.NotifyAll();
  wake_.Poke();
}

// ---------------------------------------------------------------------
// Fan-out enqueue (slow-consumer policies)
// ---------------------------------------------------------------------

bool PollutionServer::EnqueueFrame(
    const ConnPtr& conn, const std::shared_ptr<const std::string>& frame,
    const obs::SessionMetrics& metrics) {
  QueuedFrame qf{frame, std::chrono::steady_clock::now()};
  switch (options_.slow_consumer) {
    case SlowConsumerPolicy::kBlock: {
      // Blocking push: backpressure propagates into the pipeline
      // runtime, which is exactly the contract of this policy.
      if (!conn->queue->Push(std::move(qf))) return false;
      wake_.Poke();
      return true;
    }
    case SlowConsumerPolicy::kDropOldest: {
      while (true) {
        switch (conn->queue->TryPush(qf)) {
          case FrameQueue::PushResult::kOk:
            wake_.Poke();
            return true;
          case FrameQueue::PushResult::kClosed:
            return false;
          case FrameQueue::PushResult::kFull: {
            QueuedFrame discard;
            if (conn->queue->TryPop(&discard) &&
                metrics.slow_drops != nullptr) {
              metrics.slow_drops->Increment();
            }
            break;  // retry the push
          }
        }
      }
    }
    case SlowConsumerPolicy::kDisconnect: {
      switch (conn->queue->TryPush(std::move(qf))) {
        case FrameQueue::PushResult::kOk:
          wake_.Poke();
          return true;
        case FrameQueue::PushResult::kClosed:
          return false;
        case FrameQueue::PushResult::kFull:
          break;
      }
      // Queue full: cut the slow consumer loose. The kill flag is
      // connection state; the poison (a channel op, lower in the
      // hierarchy) happens after the lock is dropped.
      {
        MutexLock lock(&conn->mu);
        conn->kill = true;
      }
      conn->queue->Poison();
      if (metrics.slow_disconnects != nullptr) {
        metrics.slow_disconnects->Increment();
      }
      wake_.Poke();
      return false;
    }
  }
  return false;
}

// ---------------------------------------------------------------------
// Reactor (event loop; single thread owns outbuf/decoder per conn)
// ---------------------------------------------------------------------

void PollutionServer::HandleSubscribe(const ConnPtr& conn,
                                      const std::string& payload) {
  // Rejections are answered on the spot: an Error frame into the write
  // buffer (the reactor owns it), then flush-and-close.
  auto reject = [&](const std::string& message) {
    {
      MutexLock lock(&conn->mu);
      conn->state = Connection::State::kClosing;
    }
    conn->outbuf.append(EncodeErrorFrame(message));
  };

  Result<SubscribeRequest> request = DecodeSubscribePayload(payload);
  if (!request.ok()) {
    reject("bad subscribe frame: " + request.status().ToString());
    return;
  }
  const SubscribeRequest& hello = request.ValueOrDie();
  if (hello.version != kWireVersion) {
    reject("unsupported wire version " + std::to_string(hello.version) +
           " (server speaks " + std::to_string(kWireVersion) + ")");
    return;
  }

  // Resolve the session under the registry lock only; park the
  // subscriber under the session (+ connection) locks; then let the
  // scheduler look for a newly ready session under the registry lock
  // again. Each step stays inside the hierarchy.
  SessionPtr session;
  std::string failure;
  {
    MutexLock lock(&mu_);
    std::string available;
    for (const SessionPtr& s : sessions_) {
      if (!available.empty()) available += ", ";
      available += s->id;
    }
    if (hello.session_id.empty()) {
      // Convenience for single-session deployments: an empty id means
      // "the sole session". Ambiguous otherwise.
      if (sessions_.size() == 1) {
        session = sessions_.front();
      } else {
        failure = sessions_.empty()
                      ? "no sessions registered"
                      : "subscribe must name one of the sessions: " + available;
      }
    } else {
      for (const SessionPtr& s : sessions_) {
        if (s->id == hello.session_id) {
          session = s;
          break;
        }
      }
      if (session == nullptr) {
        failure = "unknown session '" + hello.session_id + "'" +
                  (available.empty() ? " (no sessions registered)"
                                     : " (available: " + available + ")");
      }
    }
  }
  if (session == nullptr) {
    reject(failure);
    return;
  }

  bool retired = false;
  {
    MutexLock session_lock(&session->mu);
    if (session->state == Session::State::kRetired) {
      retired = true;
    } else {
      {
        MutexLock conn_lock(&conn->mu);
        conn->state = Connection::State::kStreaming;
        conn->session = session;
        conn->send_latency = session->metrics.send_latency;
        conn->batch_frames = (hello.capabilities & kCapBatchFrames) != 0;
      }
      session->waiting.push_back(conn);
    }
  }
  if (retired) {
    // The session retired between lookup and parking; same answer a
    // straggler would have gotten under the old single lock.
    reject("session '" + session->id + "' has ended");
    return;
  }
  // outbuf is reactor-only state and schema_frame is immutable; frames
  // from a run that starts right now still trail the schema frame,
  // because only this reactor thread moves queue bytes into outbuf.
  conn->outbuf.append(session->schema_frame);
  {
    MutexLock lock(&mu_);
    ScheduleReadyLocked();
  }
  cv_.NotifyAll();  // a run may now have enough subscribers
}

bool PollutionServer::ServiceConn(const ConnPtr& conn) {
  Connection::State state;
  {
    MutexLock lock(&conn->mu);
    if (conn->kill) {
      lock.Unlock();
      conn->queue->Poison();
      return false;
    }
    state = conn->state;
  }
  // Inbound direction: a v2 client speaks once — the Subscribe hello —
  // so reads parse the handshake, then only detect peer close and keep
  // the receive buffer empty.
  char rbuf[512];
  while (true) {
    const ssize_t n = ::recv(conn->fd.get(), rbuf, sizeof(rbuf), 0);
    if (n == 0) {
      conn->queue->Poison();
      return false;  // peer hung up
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      conn->queue->Poison();
      return false;
    }
    if (state == Connection::State::kHandshake) {
      conn->decoder.Feed(rbuf, static_cast<size_t>(n));
      uint8_t type = 0;
      std::string payload;
      Result<bool> next = conn->decoder.Next(&type, &payload);
      if (!next.ok()) {
        {
          MutexLock lock(&conn->mu);
          conn->state = Connection::State::kClosing;
        }
        conn->outbuf.append(EncodeErrorFrame("bad subscribe frame: " +
                                             next.status().ToString()));
        state = Connection::State::kClosing;
      } else if (next.ValueOrDie()) {
        if (type != kFrameSubscribe) {
          {
            MutexLock lock(&conn->mu);
            conn->state = Connection::State::kClosing;
          }
          conn->outbuf.append(EncodeErrorFrame(
              "expected a Subscribe hello frame, got frame type " +
              std::to_string(type)));
          state = Connection::State::kClosing;
        } else {
          HandleSubscribe(conn, payload);
          MutexLock lock(&conn->mu);
          state = conn->state;
        }
      }
      // Bytes past the hello are ignored, like any other inbound data.
    }
  }
  // Re-read the connection state once after the inbound pass (the
  // handshake may have advanced it) along with the latency handle the
  // subscribe installed.
  obs::Histogram* send_latency = nullptr;
  {
    MutexLock lock(&conn->mu);
    state = conn->state;
    send_latency = conn->send_latency;
  }
  // Refill the write buffer from the frame queue: one bulk pop (one
  // channel lock round-trip) per connection per cycle, stopping once
  // the buffered bytes reach kMaxOutbufBytes.
  const size_t buffered = conn->outbuf.size() - conn->outpos;
  if (buffered < kMaxOutbufBytes &&
      conn->queue->TryPopMany(
          &refill_, kMaxOutbufBytes - buffered,
          [](const QueuedFrame& f) { return f.bytes->size(); }) > 0) {
    const auto now = std::chrono::steady_clock::now();
    for (const QueuedFrame& frame : refill_) {
      if (send_latency != nullptr) {
        send_latency->Observe(
            std::chrono::duration<double>(now - frame.enqueued).count());
      }
      conn->outbuf.append(*frame.bytes);
    }
    refill_.clear();
  }
  if (conn->outpos == conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->outpos = 0;
  } else if (conn->outpos > kMaxOutbufBytes) {
    conn->outbuf.erase(0, conn->outpos);
    conn->outpos = 0;
  }
  // Drain the write buffer into the socket.
  while (conn->outpos < conn->outbuf.size()) {
    const ssize_t n =
        ::send(conn->fd.get(), conn->outbuf.data() + conn->outpos,
               conn->outbuf.size() - conn->outpos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->outpos += static_cast<size_t>(n);
      if (metrics_.bytes_sent != nullptr) {
        metrics_.bytes_sent->Increment(static_cast<uint64_t>(n));
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    conn->queue->Poison();
    return false;  // broken connection
  }
  const bool flushed = conn->outpos == conn->outbuf.size();
  // A closing connection hangs up once its Error tail is flushed.
  if (state == Connection::State::kClosing && flushed) return false;
  // Graceful completion: queue closed and drained, buffer flushed.
  // The reactor is the only consumer of a closed queue, so closed +
  // empty cannot un-empty.
  if (conn->queue->closed() && conn->queue->size() == 0 && flushed) {
    return false;
  }
  return true;
}

void PollutionServer::RemoveConn(const ConnPtr& conn) {
  conn->fd.Reset();
  // Three sequential, never-nested acquisitions walking *down* the
  // hierarchy would invert it; instead each step releases before the
  // next: read the connection's session link, fix that session's
  // waiting list, then unlink from the registry.
  SessionPtr session;
  bool in_run = false;
  {
    MutexLock conn_lock(&conn->mu);
    session = std::move(conn->session);
    in_run = conn->in_run;
  }
  if (session != nullptr && !in_run) {
    // A subscriber that vanishes while waiting must not count toward
    // its session's min_subscribers.
    MutexLock session_lock(&session->mu);
    auto& waiting = session->waiting;
    for (auto it = waiting.begin(); it != waiting.end(); ++it) {
      if (it->get() == conn.get()) {
        waiting.erase(it);
        break;
      }
    }
  }
  session.reset();
  {
    MutexLock lock(&mu_);
    for (auto it = conns_.begin(); it != conns_.end(); ++it) {
      if (it->get() == conn.get()) {
        conns_.erase(it);
        break;
      }
    }
    // Fold the departing queue's stats into the server-lifetime totals
    // so frame_queue_stats() keeps reconciling after disconnects.
    retired_queue_stats_.Add(conn->queue->stats());
    if (metrics_.clients_connected != nullptr) {
      metrics_.clients_connected->Set(static_cast<double>(conns_.size()));
    }
  }
  cv_.NotifyAll();
}

void PollutionServer::ReactorLoop() {
  std::vector<pollfd> fds;
  std::vector<ConnPtr> snapshot;
  bool drain_deadline_set = false;
  std::chrono::steady_clock::time_point drain_deadline;
  while (true) {
    bool accepting = false;
    {
      MutexLock lock(&mu_);
      if (stop_requested_) break;
      if (draining_) {
        if (conns_.empty()) break;
        if (!drain_deadline_set) {
          drain_deadline_set = true;
          drain_deadline = std::chrono::steady_clock::now() + kDrainGrace;
        } else if (std::chrono::steady_clock::now() > drain_deadline) {
          break;  // unresponsive peers cannot hold shutdown hostage
        }
      }
      accepting = accepting_;
      snapshot = conns_;
    }

    fds.clear();
    fds.push_back({wake_.read_end.get(), POLLIN, 0});
    const size_t listen_index = fds.size();
    if (accepting) fds.push_back({listen_fd_.get(), POLLIN, 0});
    for (const ConnPtr& c : snapshot) {
      short events = POLLIN;
      const bool wants_write = c->outpos < c->outbuf.size() ||
                               c->queue->size() > 0 || c->queue->closed();
      if (wants_write) events |= POLLOUT;
      fds.push_back({c->fd.get(), events, 0});
    }

    // Event-driven, never ticked: poll blocks until a socket is ready
    // or a cross-thread transition pokes the self-pipe. Only the drain
    // grace period bounds the wait.
    int timeout_ms = -1;
    if (drain_deadline_set) {
      const int64_t left_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              drain_deadline - std::chrono::steady_clock::now())
              .count();
      timeout_ms = static_cast<int>(std::max<int64_t>(left_ms, 0)) + 1;
    }
    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms) < 0 &&
        errno != EINTR) {
      break;  // poll itself failed; abort serving
    }
    // Drain before anything below inspects shared state: a poke that
    // found a wake already pending relies on this cycle's scan.
    if ((fds[0].revents & POLLIN) != 0) wake_.Drain();

    if (accepting && (fds[listen_index].revents & POLLIN) != 0) {
      while (true) {
        const int cfd = ::accept4(listen_fd_.get(), nullptr, nullptr,
                                  SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (cfd < 0) break;
        auto conn = std::make_shared<Connection>();
        conn->fd = UniqueFd(cfd);
        const int one = 1;
        (void)::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        conn->queue =
            std::make_shared<FrameQueue>(options_.queue_capacity);
        {
          MutexLock lock(&mu_);
          conn->id = next_conn_id_++;
          conns_.push_back(conn);
          if (metrics_.clients_connected != nullptr) {
            metrics_.clients_connected->Set(
                static_cast<double>(conns_.size()));
          }
        }
        if (metrics_.clients_accepted != nullptr) {
          metrics_.clients_accepted->Increment();
        }
      }
    }

    for (const ConnPtr& c : snapshot) {
      if (!c->fd.valid()) continue;
      if (!ServiceConn(c)) RemoveConn(c);
    }
  }
  // Abort/exit path: close everything still open.
  std::vector<ConnPtr> leftovers;
  {
    MutexLock lock(&mu_);
    leftovers.swap(conns_);
    for (const ConnPtr& c : leftovers) {
      retired_queue_stats_.Add(c->queue->stats());
    }
    if (metrics_.clients_connected != nullptr) {
      metrics_.clients_connected->Set(0.0);
    }
  }
  for (const ConnPtr& c : leftovers) {
    c->queue->Poison();
    c->fd.Reset();
  }
  listen_fd_.Reset();
  cv_.NotifyAll();
}

}  // namespace net
}  // namespace icewafl
