/**
 * @file
 * Shared socket-listener plumbing for mscd front-ends.
 *
 * serve::Frontend accepts connections for both daemon shapes: bind a
 * Unix or loopback TCP listening socket, accept in a loop, serve each
 * connection on its own thread, and stop asynchronously (signal-safe)
 * by flagging + closing the listener. This file is that shape:
 *
 *  - bindUnix/bindTcp create ready-to-accept listening sockets
 *    (bindTcp sets SO_REUSEADDR so an immediate rebind after a
 *    restart does not flake on TIME_WAIT);
 *  - AcceptLoop owns the stop handshake: run() accepts until
 *    requestStop() closes the descriptor out from under it, then
 *    joins every connection thread before returning. Threads of
 *    connections that already ended are joined as new ones arrive,
 *    so a long-lived listener holds threads only for live
 *    connections.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

namespace msc {
namespace serve {

/** Binds and listens on a Unix socket at @p path (replacing any stale
 *  socket file from a crash). Returns the listening fd, or -1 with a
 *  diagnostic on stderr (@p who names the program in diagnostics). */
int bindUnix(const std::string &path, const char *who);

/** Binds and listens on 127.0.0.1:@p port with SO_REUSEADDR.
 *  Returns the listening fd, or -1 with a diagnostic on stderr. */
int bindTcp(uint16_t port, const char *who);

/**
 * The accept-until-stopped loop. One instance serves one listener at
 * a time; requestStop() may race run() from a signal handler.
 */
class AcceptLoop
{
  public:
    /** Accepts on @p listen_fd until requestStop(), invoking
     *  @p handler(connected_fd) on a dedicated thread per connection
     *  (the handler owns and must close the fd). Finished connection
     *  threads are joined at the next accept; the rest on return.
     *  Returns 0. Takes ownership of @p listen_fd. */
    int run(int listen_fd,
            const std::function<void(int fd)> &handler);

    /** Stops the accept loop (async-signal-safe: flags + closes the
     *  listening descriptor). In-flight connections finish. */
    void requestStop();

    bool stopping() const { return _stop.load(); }

  private:
    std::atomic<int> _listenFd{-1};
    std::atomic<bool> _stop{false};
};

} // namespace serve
} // namespace msc
