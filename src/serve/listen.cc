#include "serve/listen.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <list>
#include <mutex>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace msc {
namespace serve {

int
bindUnix(const std::string &path, const char *who)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof addr.sun_path) {
        std::fprintf(stderr, "%s: socket path too long: %s\n", who,
                     path.c_str());
        return -1;
    }
    ::unlink(path.c_str());  // replace a stale socket from a crash
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        std::fprintf(stderr, "%s: socket: %s\n", who,
                     std::strerror(errno));
        return -1;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) <
            0 ||
        ::listen(fd, 64) < 0) {
        std::fprintf(stderr, "%s: bind/listen: %s\n", who,
                     std::strerror(errno));
        ::close(fd);
        return -1;
    }
    return fd;
}

int
bindTcp(uint16_t port, const char *who)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        std::fprintf(stderr, "%s: socket: %s\n", who,
                     std::strerror(errno));
        return -1;
    }
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) <
            0 ||
        ::listen(fd, 64) < 0) {
        std::fprintf(stderr, "%s: bind/listen: %s\n", who,
                     std::strerror(errno));
        ::close(fd);
        return -1;
    }
    return fd;
}

int
AcceptLoop::run(int listen_fd,
                const std::function<void(int fd)> &handler)
{
    _listenFd.store(listen_fd);
    if (_stop.load()) {
        // requestStop() raced us before the store: close and bail
        // rather than accept on a listener the caller asked to stop.
        int fd = _listenFd.exchange(-1);
        if (fd >= 0)
            ::close(fd);
        return 0;
    }
    // Connection threads are reaped as they finish (at the next
    // accept), not at shutdown: a long-lived listener keeps only its
    // live connections' threads and stacks.
    std::mutex mu;
    std::list<std::thread> conns;
    std::vector<std::list<std::thread>::iterator> finished;
    auto reap = [&] {
        std::list<std::thread> done;
        {
            std::lock_guard<std::mutex> lock(mu);
            for (auto it : finished)
                done.splice(done.end(), conns, it);
            finished.clear();
        }
        for (auto &th : done)
            th.join();
    };
    while (!_stop.load()) {
        int c = ::accept(listen_fd, nullptr, nullptr);
        if (c < 0) {
            if (errno == EINTR)
                continue;
            break;  // requestStop closed the listener (or hard error)
        }
        reap();
        std::lock_guard<std::mutex> lock(mu);
        auto it = conns.emplace(conns.end());
        *it = std::thread([&, it, c] {
            handler(c);
            std::lock_guard<std::mutex> done(mu);
            finished.push_back(it);
        });
    }
    // Whoever wins the exchange closes — requestStop() may already
    // have claimed (and closed) the descriptor.
    int fd = _listenFd.exchange(-1);
    if (fd >= 0)
        ::close(fd);
    for (auto &th : conns)
        th.join();
    return 0;
}

void
AcceptLoop::requestStop()
{
    _stop.store(true);
    int fd = _listenFd.exchange(-1);
    if (fd >= 0) {
        // shutdown() wakes a blocked accept() on Linux; close()
        // releases the descriptor. Both are async-signal-safe.
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
}

} // namespace serve
} // namespace msc
