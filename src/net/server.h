#ifndef ICEWAFL_NET_SERVER_H_
#define ICEWAFL_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/plan.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/net_metrics.h"
#include "stream/channel.h"
#include "stream/schema.h"
#include "stream/sink.h"
#include "util/result.h"
#include "util/sync.h"

namespace icewafl {
namespace net {

/// \brief What the server does with a subscriber whose bounded queue is
/// full (the slow-consumer decision every fan-out system has to make).
enum class SlowConsumerPolicy {
  /// Block the pollution pipeline until the consumer catches up —
  /// backpressure propagates through the runtime's channels all the way
  /// to the source. Every subscriber sees the complete stream.
  kBlock = 0,
  /// Drop the oldest queued frame to make room. The pipeline never
  /// stalls; slow consumers see gaps (drops are counted per session).
  kDropOldest,
  /// Close the slow subscriber's connection. The pipeline never stalls
  /// and surviving subscribers see the complete stream; the victim
  /// observes a mid-stream disconnect.
  kDisconnect,
};

/// \brief Wire name of a policy ("block", "drop_oldest", "disconnect").
const char* SlowConsumerPolicyName(SlowConsumerPolicy policy);

/// \brief Inverse of SlowConsumerPolicyName.
Result<SlowConsumerPolicy> SlowConsumerPolicyFromName(const std::string& name);

/// \brief All valid policy names, for diagnostics and lint hints.
const std::vector<std::string>& SlowConsumerPolicyNames();

/// \brief Server-wide configuration of a PollutionServer.
struct ServerOptions {
  /// Interface to bind; empty means INADDR_ANY.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (see PollutionServer::port()).
  uint16_t port = 0;
  int backlog = 16;
  /// Size of the worker pool that drives ready sessions' pipelines. A
  /// server hosts many sessions over few workers (many-sessions-few-
  /// workers sharding); must be >= 1.
  int workers = 2;
  /// Frames (not queue entries) each subscriber queue buffers before
  /// the slow-consumer policy applies (must be >= 1); DESIGN.md §9 has
  /// each policy's unit.
  size_t queue_capacity = 256;
  /// Tuples per Batch frame for subscribers that negotiated
  /// kCapBatchFrames in their Subscribe hello (must be >= 1). Tuple
  /// subscribers are unaffected; a trailing partial batch is flushed
  /// before the End frame.
  size_t batch_rows = 256;
  SlowConsumerPolicy slow_consumer = SlowConsumerPolicy::kBlock;
  /// Optional metrics sink (not owned; may be nullptr).
  obs::MetricRegistry* metrics = nullptr;
};

/// \brief Per-session configuration.
struct SessionOptions {
  /// Subscribers that must be waiting before a run starts. A run
  /// snapshots the waiting subscribers and streams one full pollution
  /// run to them; late joiners wait for the session's next run.
  int min_subscribers = 1;
  /// Pipeline runs to serve before the session retires; 0 = until
  /// StopSession() / RequestStop().
  uint64_t max_runs = 0;
  /// Optional initial plan snapshot. When set, AddSession publishes it
  /// as version 1, the session becomes plan-driven (SwapPlan /
  /// UpdateSession apply), and its runs receive the snapshot through
  /// their PlanContext. The plan's schema must match the session's.
  /// (The explicit initializer keeps designated-initializer call sites
  /// that omit it clean under -Wmissing-field-initializers.)
  std::shared_ptr<PlanSnapshot> plan = nullptr;
};

/// \brief Introspection snapshot of one session (tests, `admin
/// list_sessions`).
struct SessionInfo {
  std::string id;
  std::string scenario;  ///< plan scenario; empty for plan-less sessions
  std::string state;     ///< "waiting" | "queued" | "running" | "retired"
  uint64_t runs = 0;
  int waiting_subscribers = 0;
  uint64_t plan_version = 0;  ///< 0 for plan-less sessions
  uint64_t plan_swaps = 0;
  /// Segments of the current (or most recent) run, in adoption order:
  /// where each plan version took over the clean stream.
  std::vector<PlanSegment> segments;
};

/// \brief Multi-tenant TCP fan-out server for polluted streams
/// (DESIGN.md section 11).
///
/// Topology: one *reactor thread* owns a poll()-driven event loop over
/// the listening socket, a self-pipe, and every connection, advancing
/// small heap-allocated per-connection state machines (kHandshake →
/// kStreaming → kClosing); a registry of *named sessions* — each owning
/// a scenario pipeline factory, its encode-once frame stream, and its
/// subscriber set — moves through its own state machine (kWaiting →
/// kQueued → kRunning → kWaiting…, terminally kRetired); a fixed
/// *worker pool* pops ready sessions from a run queue and drives one
/// full pipeline run each (many sessions, few workers). Each subscriber
/// has a bounded `BoundedChannel` frame queue between a worker and the
/// reactor, bounded in frames: the per-run fan-out sink encodes a
/// runtime batch's tuple frames once into one shared chunk and queues
/// it per subscriber; the reactor drains queues into per-connection
/// write buffers and the sockets. The sink probes the stop flags once
/// per batch, so a stop takes effect at the next batch (at most 256
/// rows later). The reactor never ticks: every cross-thread transition
/// pokes the self-pipe, so poll() blocks indefinitely when nothing is
/// happening.
///
/// Protocol per connection (wire version 2): the client speaks first
/// with a Subscribe frame naming a session; the server answers with
/// that session's Schema frame (handshake), then — once a run starts —
/// Tuple frames, then one End frame carrying the run's tuple count,
/// then closes. A bad hello (unknown session, version mismatch,
/// malformed frame) or a run failure is reported with an Error frame.
///
/// Lifecycle: sessions can be added before or after Start() and stopped
/// at runtime; Start() binds and spawns the threads; Wait() blocks
/// until every registered session has retired, then drains and closes
/// every connection gracefully; RequestStop() aborts (queues poisoned,
/// fds closed). The destructor aborts if still running — no fd or
/// thread leaks on any path.
///
/// Locking (checked under `-Wthread-safety`; DESIGN.md §12). Three lock
/// layers, acquired strictly in this order and never reversed:
///
///   registry `mu_` (kLockRankServerRegistry)
///     → `Session::mu` (kLockRankSession)
///       → `Connection::mu` (kLockRankConnection)
///         → frame-queue channel locks (kLockRankChannel)
///
/// The registry lock guards the collections (`sessions_`, `conns_`,
/// `run_queue_`) and the server-wide flags; each session and connection
/// guards its own mutable state. Two sessions (or two connections) are
/// never locked at once — same-rank acquisitions are always sequential,
/// one at a time. `cv_` is associated with the registry lock, so every
/// session *state transition* holds both `mu_` and the session's `mu`
/// (registry first): a waiter's predicate re-check can then never miss
/// a transition. Ordering is enforced at runtime by the lockdep-lite
/// rank check in util/sync.h.
class PollutionServer {
 public:
  /// \brief One pollution run: stream the full (bounded) polluted
  /// stream into `sink`. Invoked on a worker thread once per run; must
  /// create its own Source so runs are independent replays. `ctx`
  /// carries the session's plan snapshot (null members for plan-less
  /// sessions): plan-driven runs read `ctx.plan`, poll `ctx.latest()`
  /// at cutover boundaries, and report adopted segments through
  /// `ctx.on_segment` (scenarios::ServePlanToSink does all three).
  using SessionFn = std::function<Status(const PlanContext& ctx, Sink* sink)>;

  explicit PollutionServer(ServerOptions options = {});
  ~PollutionServer();

  PollutionServer(const PollutionServer&) = delete;
  PollutionServer& operator=(const PollutionServer&) = delete;

  /// \brief Registers a named session. Valid before or after Start()
  /// (runtime creation); fails once the server is stopping. The id must
  /// be non-empty, unique, and at most kMaxSessionIdBytes bytes.
  Status AddSession(const std::string& id, SchemaPtr schema, SessionFn fn,
                    SessionOptions options = {}) EXCLUDES(mu_);

  /// \brief Retires a session at runtime. A waiting session retires
  /// immediately (its waiting subscribers get an Error frame); a
  /// running session aborts its current run. Idempotent once retired;
  /// NotFound for an unknown id.
  Status StopSession(const std::string& id) EXCLUDES(mu_);

  /// \brief Atomically publishes `next` as the session's newest plan.
  ///
  /// The server assigns the next version and the publication timestamp,
  /// then swaps the session's snapshot pointer under the lock hierarchy
  /// (registry → session). A running pipeline finishes its in-flight
  /// rows under the old snapshot and adopts the new one at its next
  /// cutover boundary; a waiting session picks it up at its next run.
  /// Subscribers are never disconnected. Fails without applying when
  /// the session is unknown, retired, plan-less, or when the new plan's
  /// schema differs from the session's (subscribers already hold the
  /// session's Schema frame from their handshake).
  Status SwapPlan(const std::string& id, std::shared_ptr<PlanSnapshot> next)
      EXCLUDES(mu_);

  /// \brief Delta update: clones the session's current snapshot, lets
  /// `mutate` adjust the copy (e.g. the pacing rate), and republishes
  /// it as the next version. Same atomicity and failure contract as
  /// SwapPlan.
  Status UpdateSession(const std::string& id,
                       const std::function<void(PlanSnapshot*)>& mutate)
      EXCLUDES(mu_);

  /// \brief Introspection for one session; NotFound for an unknown id.
  /// Valid on retired sessions (their last run's segments persist).
  Result<SessionInfo> session_info(const std::string& id) const EXCLUDES(mu_);

  /// \brief Introspection for every session, in registration order.
  std::vector<SessionInfo> ListSessions() const EXCLUDES(mu_);

  /// \brief The session's current published plan (NotFound for an
  /// unknown id; null for a plan-less session).
  Result<PlanPtr> session_plan(const std::string& id) const EXCLUDES(mu_);

  /// \brief Binds, listens, and spawns the reactor and worker threads.
  Status Start() EXCLUDES(mu_);

  /// \brief The actually bound port (differs from options.port when 0).
  uint16_t port() const { return port_; }

  /// \brief Blocks until every registered session has retired (a
  /// session with max_runs == 0 retires only via StopSession), then
  /// flushes and closes every subscriber. Returns the first run error,
  /// if any. With no sessions registered this returns only after
  /// RequestStop().
  Status Wait() EXCLUDES(mu_);

  /// \brief Aborts serving: poisons every queue, wakes every thread.
  /// Idempotent and safe from any thread (including signal-free CLI
  /// teardown paths).
  void RequestStop() EXCLUDES(mu_);

  /// \brief Completed pipeline runs so far, across all sessions.
  uint64_t runs_completed() const {
    return runs_completed_.load(std::memory_order_relaxed);
  }

  /// \brief Currently connected subscribers (tests / introspection).
  size_t clients_connected() const EXCLUDES(mu_);

  /// \brief Aggregated frame-queue statistics across every subscriber
  /// connection this server has seen — live queues plus the accumulated
  /// totals of departed ones — so TryPush rejections under a
  /// slow-consumer policy reconcile with the session drop/disconnect
  /// metrics (tests / introspection).
  ChannelStats frame_queue_stats() const EXCLUDES(mu_);

  /// \brief Ids of all registered sessions, in registration order.
  std::vector<std::string> session_ids() const EXCLUDES(mu_);

 private:
  /// One entry of a subscriber's frame queue: `frames` whole frames,
  /// the bytes [begin, end) of a chunk that other subscribers' entries
  /// may share.
  struct QueuedFrame {
    std::shared_ptr<const std::string> chunk;
    size_t begin = 0;
    size_t end = 0;
    size_t frames = 1;
    std::chrono::steady_clock::time_point enqueued;

    /// An entry holding the whole of `frame`, enqueued now.
    static QueuedFrame Whole(std::shared_ptr<const std::string> frame) {
      const size_t size = frame->size();
      return {std::move(frame), 0, size, 1, std::chrono::steady_clock::now()};
    }
    struct Weight {  // the queue's capacity counts frames
      size_t operator()(const QueuedFrame& f) const { return f.frames; }
    };
  };
  using FrameQueue = BoundedChannel<QueuedFrame, QueuedFrame::Weight>;

  struct Connection;

  /// \brief A named tenant: pipeline factory + subscriber set + state.
  struct Session {
    enum class State {
      kWaiting,  ///< registered, short of min_subscribers
      kQueued,   ///< enough subscribers; awaiting a free worker
      kRunning,  ///< a worker is streaming one pipeline run
      kRetired,  ///< terminal: max_runs reached or stopped
    };

    // Immutable after AddSession() publishes the session.
    std::string id;
    SchemaPtr schema;
    SessionFn fn;
    SessionOptions options;
    std::string schema_frame;
    obs::SessionMetrics metrics;

    /// Second rank of the hierarchy: acquired after the registry lock
    /// (state transitions hold both), before connection/channel locks.
    mutable Mutex mu{kLockRankSession};
    State state GUARDED_BY(mu) = State::kWaiting;
    bool stop_requested GUARDED_BY(mu) = false;
    uint64_t runs GUARDED_BY(mu) = 0;
    std::vector<std::shared_ptr<Connection>> waiting GUARDED_BY(mu);
    /// Newest published snapshot (null for plan-less sessions). Swapped
    /// whole — the snapshot behind the pointer is immutable, so a
    /// running pipeline holding the old PlanPtr is never raced.
    PlanPtr plan GUARDED_BY(mu);
    /// Publications after the initial one (SwapPlan / UpdateSession).
    uint64_t plan_swaps GUARDED_BY(mu) = 0;
    /// Segments of the current run, reset when a run starts.
    std::vector<PlanSegment> segments GUARDED_BY(mu);
    /// Highest version a serving runner has adopted (swap-latency
    /// bookkeeping: each version's adoption is observed once).
    uint64_t adopted_version GUARDED_BY(mu) = 0;
  };
  using SessionPtr = std::shared_ptr<Session>;

  /// \brief Heap-allocated per-connection state machine, advanced by
  /// the reactor.
  struct Connection {
    enum class State {
      kHandshake,  ///< accepted; awaiting the Subscribe hello
      kStreaming,  ///< subscribed; frames flow queue → outbuf → socket
      kClosing,    ///< flush outbuf (an Error tail), then hang up
    };

    // Immutable after the accept path publishes the connection.
    uint64_t id = 0;
    UniqueFd fd;
    std::shared_ptr<FrameQueue> queue;

    /// Reactor-thread only: hello parser and write buffer. Never
    /// touched off the reactor, so they need no lock.
    FrameDecoder decoder;
    std::string outbuf;
    size_t outpos = 0;

    /// Third rank of the hierarchy: acquired after registry/session
    /// locks, before channel locks; never while holding another
    /// connection's lock.
    mutable Mutex mu{kLockRankConnection};
    State state GUARDED_BY(mu) = State::kHandshake;
    SessionPtr session GUARDED_BY(mu);
    obs::Histogram* send_latency GUARDED_BY(mu) = nullptr;
    bool in_run GUARDED_BY(mu) = false;
    bool kill GUARDED_BY(mu) = false;
    /// The hello negotiated kCapBatchFrames: runs send this subscriber
    /// Batch frames instead of per-tuple frames.
    bool batch_frames GUARDED_BY(mu) = false;
  };
  using ConnPtr = std::shared_ptr<Connection>;

  class FanoutSink;

  void ReactorLoop() EXCLUDES(mu_);
  void WorkerLoop() EXCLUDES(mu_);
  /// Looks up a session by id in registration order.
  SessionPtr FindSessionLocked(const std::string& id) const REQUIRES(mu_);
  /// Versions, timestamps, and publishes `next` as `session`'s newest
  /// snapshot; shared tail of SwapPlan and UpdateSession.
  Status PublishPlanLocked(const SessionPtr& session,
                           std::shared_ptr<PlanSnapshot> next)
      REQUIRES(mu_, session->mu);
  /// Cutover bookkeeping: records an adopted segment and observes the
  /// swap-latency histogram on the first adoption of each version.
  /// Runs on a serving runner's source thread with no locks held.
  void OnSegment(Session* session, const PlanSegment& segment)
      EXCLUDES(mu_);
  /// Runs one pipeline run of `session` for `participants` (worker).
  void RunSession(const SessionPtr& session,
                  std::vector<ConnPtr> participants) EXCLUDES(mu_);
  /// Moves every waiting session with enough subscribers to the run
  /// queue. Locks each candidate session in turn; caller notifies.
  void ScheduleReadyLocked() REQUIRES(mu_);
  /// Retires `session`: terminal state + an Error tail for its waiting
  /// subscribers. A state transition, so it requires both the registry
  /// and the session lock; caller pokes the reactor.
  void RetireLocked(const SessionPtr& session, const std::string& reason)
      REQUIRES(mu_, session->mu);
  /// Reactor: parses and answers the Subscribe hello in `payload`.
  void HandleSubscribe(const ConnPtr& conn, std::string_view payload)
      EXCLUDES(mu_);
  /// Applies the slow-consumer policy to enqueue the frames of `chunk`
  /// for `conn`; frame k ends at `ends[k]` (empty `ends`: one frame).
  /// Returns false when the conn can no longer receive (closed/killed).
  bool EnqueueFrame(const ConnPtr& conn,
                    const std::shared_ptr<const std::string>& chunk,
                    std::span<const size_t> ends,
                    const obs::SessionMetrics& metrics) EXCLUDES(mu_);
  /// Reactor: accepts the listen backlog; while draining, each new
  /// connection gets the shutdown Error frame at once.
  void AcceptPending() EXCLUDES(mu_);
  /// Reactor: advances one connection (read side when `revents` asks,
  /// queue drain, socket flush). Returns false when the connection is
  /// finished and should be removed.
  bool ServiceConn(const ConnPtr& conn, short revents) EXCLUDES(mu_);
  void RemoveConn(const ConnPtr& conn) EXCLUDES(mu_);

  /// Written by the constructor and Start() before any thread exists;
  /// read-only afterwards (thread creation is the publication edge).
  ServerOptions options_;

  UniqueFd listen_fd_;
  WakePipe wake_;
  uint16_t port_ = 0;
  /// Reactor-thread only: frames of one bulk refill, kept empty between
  /// refills so its capacity is reused.
  std::vector<QueuedFrame> refill_;

  /// First rank of the hierarchy; `cv_` waits are predicated only on
  /// fields this lock guards (plus session states, whose transitions
  /// also hold this lock — see the class comment).
  mutable Mutex mu_{kLockRankServerRegistry};
  CondVar cv_;
  std::vector<SessionPtr> sessions_ GUARDED_BY(mu_);
  std::vector<ConnPtr> conns_ GUARDED_BY(mu_);
  std::deque<SessionPtr> run_queue_ GUARDED_BY(mu_);
  bool started_ GUARDED_BY(mu_) = false;
  bool accepting_ GUARDED_BY(mu_) = false;
  bool draining_ GUARDED_BY(mu_) = false;
  bool stop_requested_ GUARDED_BY(mu_) = false;
  Status first_error_ GUARDED_BY(mu_);
  uint64_t next_conn_id_ GUARDED_BY(mu_) = 1;
  /// Frame-queue stats of departed connections (see frame_queue_stats).
  ChannelStats retired_queue_stats_ GUARDED_BY(mu_);

  std::atomic<uint64_t> runs_completed_{0};
  obs::ServerMetrics metrics_;

  std::thread reactor_thread_;
  std::vector<std::thread> workers_;
};

}  // namespace net
}  // namespace icewafl

#endif  // ICEWAFL_NET_SERVER_H_
