// Signal-robust file-descriptor I/O.
//
// SIGUSR1 (status dumps) is installed *without* SA_RESTART, so a blocking
// read or write in the process can return early with EINTR or come back
// short.  Every fd-level write on the heartbeat/status paths goes through
// these helpers, which retry EINTR and resume short writes until the whole
// buffer is written (or a real error ends the stream).
#pragma once

#include <cstddef>
#include <string>

namespace fsct {

/// Writes all `n` bytes of `p` to `fd`, retrying on EINTR and continuing
/// after short writes.  Returns false on any other error (EPIPE, ENOSPC,
/// ...); errno is left at the failing call's value.
bool write_all(int fd, const void* p, std::size_t n);

/// write_all of `line` plus a trailing '\n' in a single buffer, so the line
/// reaches the fd in one write(2) when it fits the pipe/socket buffer (keeps
/// concurrent heartbeat lines from interleaving mid-line).
bool write_line(int fd, const std::string& line);

/// read(2) retrying on EINTR only.  Returns the byte count (0 = EOF) or -1
/// on a real error.
long read_retry(int fd, void* p, std::size_t n);

}  // namespace fsct
