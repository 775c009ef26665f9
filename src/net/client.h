#ifndef ICEWAFL_NET_CLIENT_H_
#define ICEWAFL_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "net/socket.h"
#include "net/wire.h"
#include "stream/source.h"
#include "util/result.h"

namespace icewafl {
namespace net {

/// \brief TCP subscriber to a PollutionServer — a network-backed Source.
///
/// Connect() dials the server, sends the Subscribe hello (wire version
/// + session id), and performs the handshake (the server answers with
/// the session's Schema frame, or an Error frame for an unknown
/// session or version mismatch). After that the client is an ordinary
/// pull-based Source: Next() blocks for the next Tuple frame, returns
/// false at the End frame, and surfaces every abnormal condition — a
/// server-sent Error frame, a mid-stream disconnect, or a malformed
/// frame — as a Status. Every error status identifies the session and
/// the peer address, so a multi-tenant failure is attributable. One
/// client consumes exactly one run; it does not reconnect.
class StreamClient : public Source {
 public:
  /// \brief Dials host:port, subscribes to `session_id`, and completes
  /// the schema handshake. An empty session id subscribes to the
  /// server's sole session (single-session deployments).
  /// `capabilities` are kCap* bits advertised in the hello; pass
  /// kCapBatchFrames to receive columnar Batch frames (transparently
  /// unpacked — Next() still yields one Tuple at a time). The default
  /// advertises nothing, so the hello bytes match older clients.
  static Result<std::unique_ptr<StreamClient>> Connect(
      const std::string& host, uint16_t port,
      const std::string& session_id = "", uint64_t capabilities = 0);

  SchemaPtr schema() const override { return schema_; }

  /// \brief Produces the next streamed tuple; false at graceful end of
  /// stream. A disconnect before the End frame is an error, not an end.
  Result<bool> Next(Tuple* out) override;

  /// \brief Tuples received so far.
  uint64_t tuples_received() const { return tuples_received_; }

  /// \brief Total the server reported in its End frame (valid once
  /// Next() has returned false).
  uint64_t reported_total() const { return reported_total_; }

  /// \brief The session id this client subscribed with (possibly "").
  const std::string& session_id() const { return session_id_; }

  /// \brief The server address as "host:port".
  const std::string& peer() const { return peer_; }

 private:
  StreamClient(UniqueFd fd, SchemaPtr schema, std::string session_id,
               std::string peer)
      : fd_(std::move(fd)),
        schema_(std::move(schema)),
        session_id_(std::move(session_id)),
        peer_(std::move(peer)) {}

  /// "session '<id>' at <host>:<port>" (or "peer <host>:<port>" when
  /// no session id was given) — the prefix of every error status.
  std::string Context() const;

  UniqueFd fd_;
  SchemaPtr schema_;
  std::string session_id_;
  std::string peer_;
  FrameDecoder decoder_;
  /// kCap* bits sent in the hello; a Batch frame from the server is a
  /// protocol violation unless kCapBatchFrames is set here.
  uint64_t capabilities_ = 0;
  /// Rows of a decoded Batch frame not yet handed out by Next().
  std::deque<Tuple> pending_;
  bool finished_ = false;
  uint64_t tuples_received_ = 0;
  uint64_t reported_total_ = 0;
};

}  // namespace net
}  // namespace icewafl

#endif  // ICEWAFL_NET_CLIENT_H_
