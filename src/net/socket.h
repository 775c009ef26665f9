#ifndef ICEWAFL_NET_SOCKET_H_
#define ICEWAFL_NET_SOCKET_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "net/wire.h"
#include "util/result.h"

namespace icewafl {
namespace net {

/// \file
/// Thin RAII wrappers over the POSIX socket calls the serving subsystem
/// uses. Everything returns Status instead of errno, and every
/// descriptor lives in a UniqueFd so error paths cannot leak fds (the
/// ASan preset runs the whole server test suite; a leaked fd shows up
/// as an exhausted descriptor table long before then). The blocking
/// frame helpers at the end are shared by the stream and admin clients
/// and the admin server.

/// \brief Owning file descriptor; closes on destruction.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { Reset(); }

  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.Release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.Release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// \brief Relinquishes ownership without closing.
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// \brief Closes the descriptor (idempotent).
  void Reset();

 private:
  int fd_ = -1;
};

/// \brief Thread-safe errno formatting (strerror_r; plain strerror
/// shares a static buffer across threads, and the serving core calls
/// into here from the reactor and every worker).
std::string ErrnoMessage(int errnum);

/// \brief Creates a listening TCP socket bound to `host:port`
/// (SO_REUSEADDR, non-blocking). Port 0 binds an ephemeral port; the
/// actually bound port is written to `*bound_port`.
Result<UniqueFd> ListenTcp(const std::string& host, uint16_t port,
                           int backlog, uint16_t* bound_port);

/// \brief Connects (blocking) to `host:port`.
Result<UniqueFd> ConnectTcp(const std::string& host, uint16_t port);

/// \brief Switches `fd` to non-blocking mode.
Status SetNonBlocking(int fd);

/// \brief A non-blocking pipe pair used to wake a poll() loop from
/// other threads (the self-pipe trick).
///
/// Pokes coalesce: an atomic "wake pending" flag admits one byte into
/// the pipe until the poller drains it, so a burst of pokes costs one
/// write(2) and one wake-up. Protocol for the poller: poll the read end,
/// Drain() when it is readable, *then* inspect the shared state the
/// pokers published before poking. Drain() empties the pipe before it
/// clears the flag; clearing first would let a fresh byte be swallowed
/// with the flag left set, and every later Poke() would be skipped.
struct WakePipe {
  UniqueFd read_end;
  UniqueFd write_end;

  WakePipe() = default;
  WakePipe(WakePipe&& other) noexcept;
  WakePipe& operator=(WakePipe&& other) noexcept;

  static Result<WakePipe> Make();

  /// \brief Wakes the poller; a no-op while a wake is already pending.
  /// Safe on a default-constructed pipe (the write fails harmlessly).
  void Poke() const;
  /// \brief Reads the pipe empty, then re-arms Poke().
  void Drain() const;

 private:
  mutable std::atomic<bool> pending_{false};
};

/// \brief Writes all of `bytes` to the blocking socket `fd`.
Status SendAll(int fd, const std::string& bytes);

/// \brief Blocking read of the next frame from `fd` through `decoder`.
/// \return true with `*type`/`*payload` filled; false on a clean EOF
/// between frames; IOError on an EOF mid-frame or a transport failure.
Result<bool> ReadFrame(int fd, FrameDecoder* decoder, uint8_t* type,
                       std::string* payload);

}  // namespace net
}  // namespace icewafl

#endif  // ICEWAFL_NET_SOCKET_H_
