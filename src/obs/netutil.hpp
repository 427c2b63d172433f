// Shared POSIX TCP helpers for every std-only socket user in LORE: the
// /metrics exposition server (serve.cpp), its scrape client (scrape.cpp),
// and the campaign fabric's coordinator/worker transport (src/fabric). One
// place owns the fiddly parts — SO_REUSEADDR, ephemeral-port resolution,
// EINTR retries, short reads/writes — so no caller duplicates them.
//
// Unlike the LORE_OBS_* instrumentation macros, these helpers do NOT compile
// out under -DLORE_OBS=OFF (like the Json model, they carry no observability
// state): the campaign fabric's transport keeps working in every preset.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace lore::obs {

/// A bound + listening TCP socket. `port` is the actually-bound port, so
/// requesting port 0 yields the kernel-chosen ephemeral port here.
struct ListenSocket {
  int fd = -1;
  std::uint16_t port = 0;
};

/// socket + SO_REUSEADDR + bind + listen + getsockname. Returns nullopt when
/// any step fails (address unparsable, port taken, ...); never leaks the fd.
std::optional<ListenSocket> listen_tcp(const std::string& bind_address,
                                       std::uint16_t port, int backlog = 16);

/// Blocking connect to host:port (IPv4 dotted quad). Returns the connected
/// fd, or -1 on failure. Retries EINTR.
int connect_tcp(const std::string& host, std::uint16_t port);

/// accept(2) retrying EINTR. Returns the client fd or -1 on a real error.
int accept_retry(int listen_fd);

/// recv(2) retrying EINTR. Returns bytes read, 0 on orderly EOF, -1 on error
/// (including a receive timeout installed by set_socket_timeout).
long recv_retry(int fd, void* buf, std::size_t n);

/// Bound every subsequent send/recv on `fd` to `timeout_ms` (SO_RCVTIMEO +
/// SO_SNDTIMEO); a blocked call then fails with EAGAIN instead of hanging on
/// a dead peer. <= 0 clears the bound. Returns false if setsockopt fails.
bool set_socket_timeout(int fd, int timeout_ms);

/// Write all of `data`, retrying EINTR and short writes (MSG_NOSIGNAL so a
/// dead peer surfaces as an error, not SIGPIPE). True when every byte went.
bool send_all(int fd, const void* data, std::size_t n);

/// Write `parts` back to back as one stream, gathered by sendmsg(2) so no
/// part is copied into a joint buffer first; same retry and error rules.
bool send_all(int fd, std::span<const std::string_view> parts);

/// Read exactly `n` bytes, retrying EINTR and short reads. False on EOF or
/// error before `n` bytes arrive.
bool recv_all(int fd, void* buf, std::size_t n);

/// close(2), ignoring errors; safe on -1.
void close_fd(int fd);

}  // namespace lore::obs
