#include "src/obs/netutil.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <vector>

namespace lore::obs {

std::optional<ListenSocket> listen_tcp(const std::string& bind_address,
                                       std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1 ||
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, backlog) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  return ListenSocket{fd, ntohs(addr.sin_port)};
}

int connect_tcp(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int accept_retry(int listen_fd) {
  for (;;) {
    const int client = ::accept(listen_fd, nullptr, nullptr);
    if (client >= 0 || errno != EINTR) return client;
  }
}

bool set_socket_timeout(int fd, int timeout_ms) {
  timeval tv{};
  if (timeout_ms > 0) {
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  }
  const bool rcv = ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) == 0;
  const bool snd = ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv) == 0;
  return rcv && snd;
}

long recv_retry(int fd, void* buf, std::size_t n) {
  for (;;) {
    const ssize_t r = ::recv(fd, buf, n, 0);
    if (r >= 0 || errno != EINTR) return static_cast<long>(r);
  }
}

bool send_all(int fd, const void* data, std::size_t n) {
  const std::string_view part(static_cast<const char*>(data), n);
  return send_all(fd, std::span<const std::string_view>(&part, 1));
}

bool send_all(int fd, std::span<const std::string_view> parts) {
  std::vector<iovec> iov;
  for (const std::string_view p : parts)
    if (!p.empty()) iov.push_back({const_cast<char*>(p.data()), p.size()});
  for (std::size_t i = 0; i < iov.size();) {
    msghdr msg{};
    msg.msg_iov = iov.data() + i;
    msg.msg_iovlen = iov.size() - i;
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (w == 0) return false;
    // Skip the parts sent whole; trim the one sent in part.
    auto sent = static_cast<std::size_t>(w);
    for (; i < iov.size() && sent >= iov[i].iov_len; ++i) sent -= iov[i].iov_len;
    if (sent > 0) {
      iov[i].iov_base = static_cast<char*>(iov[i].iov_base) + sent;
      iov[i].iov_len -= sent;
    }
  }
  return true;
}

bool recv_all(int fd, void* buf, std::size_t n) {
  char* p = static_cast<char*>(buf);
  std::size_t off = 0;
  while (off < n) {
    const long r = recv_retry(fd, p + off, n - off);
    if (r <= 0) return false;
    off += static_cast<std::size_t>(r);
  }
  return true;
}

void close_fd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace lore::obs
