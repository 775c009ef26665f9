#include "net/client.h"

namespace icewafl {
namespace net {

namespace {

std::string ContextOf(const std::string& session_id, const std::string& peer) {
  if (session_id.empty()) return "peer " + peer;
  return "session '" + session_id + "' at " + peer;
}

/// Blocks for one complete frame. A stream only ends with an End or
/// Error frame, so even an EOF on a frame boundary is a disconnect.
Status ReadStreamFrame(int fd, FrameDecoder* decoder, uint8_t* type,
                       std::string* payload) {
  ICEWAFL_ASSIGN_OR_RETURN(const bool have,
                           ReadFrame(fd, decoder, type, payload));
  if (!have) return Status::IOError("connection closed mid-stream");
  return Status::OK();
}

}  // namespace

std::string StreamClient::Context() const {
  return ContextOf(session_id_, peer_);
}

Result<std::unique_ptr<StreamClient>> StreamClient::Connect(
    const std::string& host, uint16_t port, const std::string& session_id,
    uint64_t capabilities) {
  const std::string peer = host + ":" + std::to_string(port);
  const std::string context = ContextOf(session_id, peer);
  ICEWAFL_ASSIGN_OR_RETURN(UniqueFd fd, ConnectTcp(host, port));
  // Hello: the client speaks first, naming the session it wants and
  // the optional frame capabilities it can consume.
  ICEWAFL_RETURN_NOT_OK(SendAll(
      fd.get(), EncodeSubscribeFrame(kWireVersion, session_id, capabilities)));
  // Handshake: the server answers with the session's schema.
  FrameDecoder decoder;
  uint8_t type = 0;
  std::string payload;
  ICEWAFL_RETURN_NOT_OK(ReadStreamFrame(fd.get(), &decoder, &type, &payload));
  if (type == kFrameError) {
    return Status::IOError(context + ": server error during handshake: " +
                           payload);
  }
  if (type != kFrameSchema) {
    return Status::ParseError(
        context + ": expected Schema frame in handshake, got type " +
        std::to_string(static_cast<int>(type)));
  }
  ICEWAFL_ASSIGN_OR_RETURN(SchemaPtr schema, DecodeSchemaPayload(payload));
  auto client = std::unique_ptr<StreamClient>(new StreamClient(
      std::move(fd), std::move(schema), session_id, peer));
  client->decoder_ = std::move(decoder);  // may hold early tuple bytes
  client->capabilities_ = capabilities;
  return client;
}

Result<bool> StreamClient::Next(Tuple* out) {
  // Rows unpacked from an earlier Batch frame are served first; the
  // socket is only read again once they are exhausted.
  if (!pending_.empty()) {
    *out = std::move(pending_.front());
    pending_.pop_front();
    ++tuples_received_;
    return true;
  }
  if (finished_) return false;
  while (true) {
    uint8_t type = 0;
    std::string payload;
    Status read = ReadStreamFrame(fd_.get(), &decoder_, &type, &payload);
    if (!read.ok()) {
      // Attribute the failure: a bare "connection closed mid-stream" is
      // useless when one process tails many sessions.
      return Status(read.code(), Context() + ": " + read.message());
    }
    switch (type) {
      case kFrameTuple: {
        ICEWAFL_ASSIGN_OR_RETURN(*out, DecodeTuplePayload(payload, schema_));
        ++tuples_received_;
        return true;
      }
      case kFrameBatch: {
        if ((capabilities_ & kCapBatchFrames) == 0) {
          return Status::ParseError(
              Context() +
              ": server sent a Batch frame this client did not negotiate");
        }
        ICEWAFL_ASSIGN_OR_RETURN(Batch batch,
                                 DecodeBatchPayload(payload, schema_));
        TupleVector rows = batch.ToTuples();
        for (Tuple& t : rows) pending_.push_back(std::move(t));
        if (pending_.empty()) continue;  // tolerate an empty batch
        *out = std::move(pending_.front());
        pending_.pop_front();
        ++tuples_received_;
        return true;
      }
      case kFrameEnd: {
        ICEWAFL_ASSIGN_OR_RETURN(reported_total_, DecodeEndPayload(payload));
        finished_ = true;
        fd_.Reset();
        if (reported_total_ != tuples_received_) {
          return Status::IOError(
              Context() + ": stream ended after " +
              std::to_string(tuples_received_) +
              " tuples but the server reported " +
              std::to_string(reported_total_));
        }
        return false;
      }
      case kFrameError:
        finished_ = true;
        fd_.Reset();
        return Status::IOError(Context() + ": server error: " + payload);
      case kFrameSchema:
        return Status::ParseError(Context() +
                                  ": unexpected mid-stream Schema frame");
      default:
        return Status::ParseError(Context() + ": unknown frame type " +
                                  std::to_string(static_cast<int>(type)));
    }
  }
}

}  // namespace net
}  // namespace icewafl
