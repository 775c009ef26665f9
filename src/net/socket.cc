#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace icewafl {
namespace net {

namespace {

// strerror_r comes in two flavours: XSI returns int and fills the
// buffer, GNU returns the message pointer (which may ignore the
// buffer). Overload resolution picks the right unpacking at compile
// time, so this builds against either libc.
[[maybe_unused]] const char* PickErrnoText(int rc, const char* buf) {
  return rc == 0 ? buf : "unknown error";
}
[[maybe_unused]] const char* PickErrnoText(const char* message,
                                           const char* /*buf*/) {
  return message;
}

Status ErrnoStatus(const std::string& what) {
  return Status::IOError(what + ": " + ErrnoMessage(errno));
}

/// Resolves `host` to an IPv4 sockaddr_in. getaddrinfo handles both
/// numeric addresses and names like "localhost".
Status ResolveIpv4(const std::string& host, uint16_t port,
                   sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  if (host.empty()) {
    addr->sin_addr.s_addr = htonl(INADDR_ANY);
    return Status::OK();
  }
  if (inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1) {
    return Status::OK();
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* info = nullptr;
  const int rc = getaddrinfo(host.c_str(), nullptr, &hints, &info);
  if (rc != 0 || info == nullptr) {
    return Status::IOError("cannot resolve host '" + host +
                           "': " + gai_strerror(rc));
  }
  addr->sin_addr =
      reinterpret_cast<const sockaddr_in*>(info->ai_addr)->sin_addr;
  freeaddrinfo(info);
  return Status::OK();
}

}  // namespace

std::string ErrnoMessage(int errnum) {
  char buf[128] = {};
  return PickErrnoText(strerror_r(errnum, buf, sizeof(buf)), buf);
}

void UniqueFd::Reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl(F_SETFL)");
  }
  return Status::OK();
}

Result<UniqueFd> ListenTcp(const std::string& host, uint16_t port,
                           int backlog, uint16_t* bound_port) {
  sockaddr_in addr{};
  ICEWAFL_RETURN_NOT_OK(ResolveIpv4(host, port, &addr));
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return ErrnoStatus("socket");
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) <
      0) {
    return ErrnoStatus("setsockopt(SO_REUSEADDR)");
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return ErrnoStatus("bind to port " + std::to_string(port));
  }
  if (::listen(fd.get(), backlog) < 0) return ErrnoStatus("listen");
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t len = sizeof(actual);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&actual), &len) <
        0) {
      return ErrnoStatus("getsockname");
    }
    *bound_port = ntohs(actual.sin_port);
  }
  ICEWAFL_RETURN_NOT_OK(SetNonBlocking(fd.get()));
  return fd;
}

Result<UniqueFd> ConnectTcp(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  ICEWAFL_RETURN_NOT_OK(
      ResolveIpv4(host.empty() ? "127.0.0.1" : host, port, &addr));
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return ErrnoStatus("socket");
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    return ErrnoStatus("connect to " + host + ":" + std::to_string(port));
  }
  // Tuple frames are small; without TCP_NODELAY Nagle batches them
  // behind the peer's delayed ACKs and per-tuple latency jumps to ~40ms.
  const int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

WakePipe::WakePipe(WakePipe&& other) noexcept
    : read_end(std::move(other.read_end)),
      write_end(std::move(other.write_end)),
      pending_(other.pending_.load()) {}

WakePipe& WakePipe::operator=(WakePipe&& other) noexcept {
  read_end = std::move(other.read_end);
  write_end = std::move(other.write_end);
  pending_.store(other.pending_.load());
  return *this;
}

Result<WakePipe> WakePipe::Make() {
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) < 0) {
    return ErrnoStatus("pipe2");
  }
  WakePipe pipe;
  pipe.read_end = UniqueFd(fds[0]);
  pipe.write_end = UniqueFd(fds[1]);
  return pipe;
}

void WakePipe::Poke() const {
  // Only the poke that raises the flag writes; the byte it writes keeps
  // the read end readable until the poller's Drain() re-arms the flag.
  if (pending_.exchange(true)) return;
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(write_end.get(), &byte, 1);
}

void WakePipe::Drain() const {
  char buf[256];
  while (::read(read_end.get(), buf, sizeof(buf)) > 0) {
  }
  // Only now re-arm: a poke that saw the flag still set published its
  // state before this store, so the poller's scan after Drain() sees it.
  pending_.store(false);
}

Status SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IOError("send: " + ErrnoMessage(errno));
  }
  return Status::OK();
}

Result<bool> ReadFrame(int fd, FrameDecoder* decoder, uint8_t* type,
                       std::string* payload) {
  char buf[64 * 1024];
  while (true) {
    ICEWAFL_ASSIGN_OR_RETURN(const bool have, decoder->Next(type, payload));
    if (have) return true;
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      if (decoder->buffered() > 0) {
        return Status::IOError("connection closed mid-frame (" +
                               std::to_string(decoder->buffered()) +
                               " bytes buffered)");
      }
      return false;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("recv: " + ErrnoMessage(errno));
    }
    decoder->Feed(buf, static_cast<size_t>(n));
  }
}

}  // namespace net
}  // namespace icewafl
