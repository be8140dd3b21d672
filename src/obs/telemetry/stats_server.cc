#include "obs/telemetry/stats_server.hh"

#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/telemetry/telemetry.hh"

#if defined(__unix__) || defined(__APPLE__)
#define DEE_TELEMETRY_HAVE_UNIX_SOCKETS 1
#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define DEE_TELEMETRY_HAVE_UNIX_SOCKETS 0
#endif

namespace dee::obs::telemetry
{

StatsServer::StatsServer(Hub &hub) : hub_(hub) {}

StatsServer::~StatsServer()
{
    stop();
}

std::string
StatsServer::handleRequest(const std::string &line) const
{
    std::istringstream iss(line);
    std::string cmd;
    iss >> cmd;
    if (cmd == "snapshot")
        return hub_.snapshotJson().dump();
    if (cmd == "ping") {
        Json out = Json::object();
        out["ok"] = Json(true);
        return out.dump();
    }
    if (cmd == "tail") {
        std::string name;
        std::size_t n = 0;
        iss >> name >> n;
        Json out = Json::object();
        if (name.empty() || n == 0) {
            out["error"] = Json("usage: tail <series> <n>");
            return out.dump();
        }
        out["name"] = Json(name);
        Json ts = Json::array();
        Json vs = Json::array();
        for (const Sample &s : hub_.seriesTail(name, n)) {
            ts.push(Json(s.tMs));
            vs.push(Json(s.value));
        }
        out["t_ms"] = std::move(ts);
        out["v"] = std::move(vs);
        return out.dump();
    }
    Json out = Json::object();
    out["error"] = Json("unknown command '" + cmd +
                        "' (expected snapshot, tail or ping)");
    return out.dump();
}

#if DEE_TELEMETRY_HAVE_UNIX_SOCKETS

bool
StatsServer::start(const std::string &path)
{
    if (running_)
        return false;
    sockaddr_un addr;
    if (path.size() >= sizeof(addr.sun_path)) {
        dee_warn("telemetry socket path too long (", path.size(),
                 " bytes, max ", sizeof(addr.sun_path) - 1,
                 "); endpoint disabled");
        return false;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        dee_warn("cannot create telemetry socket: ",
                 std::strerror(errno));
        return false;
    }
    // A stale file from a previous (crashed) run would fail bind().
    ::unlink(path.c_str());
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 8) != 0) {
        dee_warn("cannot bind telemetry socket '", path,
                 "': ", std::strerror(errno));
        ::close(fd);
        return false;
    }
    listenFd_ = fd;
    path_ = path;
    stopRequested_ = false;
    running_ = true;
    thread_ = std::thread([this] { serveLoop(); });
    dee_inform("telemetry endpoint listening on ", path);
    return true;
}

void
StatsServer::stop()
{
    if (!running_)
        return;
    stopRequested_ = true;
    if (thread_.joinable())
        thread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    ::unlink(path_.c_str());
    running_ = false;
}

void
StatsServer::serveLoop()
{
    struct Client
    {
        int fd;
        std::string inbuf;
    };
    std::vector<Client> clients;

    while (!stopRequested_) {
        std::vector<pollfd> fds;
        fds.push_back({listenFd_, POLLIN, 0});
        for (const Client &c : clients)
            fds.push_back({c.fd, POLLIN, 0});
        // Short timeout so a stop() request is honored promptly even
        // with no traffic.
        const int ready =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
        if (ready <= 0)
            continue;

        // Serve only the clients this poll round covered: fds holds one
        // entry per client polled, so a client accepted below must wait
        // for the next round.
        const std::size_t polled = fds.size() - 1;
        for (std::size_t i = 0; i < polled;) {
            const short revents = fds[i + 1].revents;
            bool drop = false;
            if (revents & (POLLERR | POLLHUP | POLLNVAL))
                drop = true;
            if (!drop && (revents & POLLIN)) {
                char buf[4096];
                const ssize_t n =
                    ::recv(clients[i].fd, buf, sizeof(buf), 0);
                if (n <= 0) {
                    drop = true;
                } else {
                    clients[i].inbuf.append(buf,
                                            static_cast<std::size_t>(n));
                    std::size_t nl;
                    while (!drop &&
                           (nl = clients[i].inbuf.find('\n')) !=
                               std::string::npos) {
                        const std::string line =
                            clients[i].inbuf.substr(0, nl);
                        clients[i].inbuf.erase(0, nl + 1);
                        if (line.empty())
                            continue;
                        std::string reply = handleRequest(line);
                        reply.push_back('\n');
                        std::size_t off = 0;
                        while (off < reply.size()) {
                            const ssize_t w = ::send(
                                clients[i].fd, reply.data() + off,
                                reply.size() - off, MSG_NOSIGNAL);
                            if (w <= 0) {
                                drop = true;
                                break;
                            }
                            off += static_cast<std::size_t>(w);
                        }
                    }
                }
            }
            if (drop) {
                ::close(clients[i].fd);
                clients.erase(clients.begin() +
                              static_cast<std::ptrdiff_t>(i));
                // fds indexing is stale after erase; re-poll.
                break;
            }
            ++i;
        }

        if (fds[0].revents & POLLIN) {
            const int cfd = ::accept(listenFd_, nullptr, nullptr);
            if (cfd >= 0)
                clients.push_back({cfd, {}});
        }
    }
    for (const Client &c : clients)
        ::close(c.fd);
}

#else // !DEE_TELEMETRY_HAVE_UNIX_SOCKETS

bool
StatsServer::start(const std::string &path)
{
    dee_warn("telemetry socket '", path,
             "' unsupported on this platform; endpoint disabled");
    return false;
}

void
StatsServer::stop()
{
}

void
StatsServer::serveLoop()
{
}

#endif // DEE_TELEMETRY_HAVE_UNIX_SOCKETS

} // namespace dee::obs::telemetry
