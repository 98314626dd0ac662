//===- Server.cpp - Unix-socket transport for shackle serve -------------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "support/FaultInjector.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace shackle;

namespace {

/// Writes all of \p Data, riding out partial writes and EINTR. SIGPIPE is
/// suppressed per-call so a vanished client never kills the daemon.
bool sendAll(int Fd, const char *Data, size_t Len) {
  while (Len > 0) {
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

/// Sends one structured error reply line; best-effort (the peer may be
/// gone, which is fine — the connection is closing anyway).
void sendErrorLine(int Fd, JsonValue Reply) {
  std::string Line = Reply.str();
  Line += '\n';
  sendAll(Fd, Line.data(), Line.size());
}

/// Closes a connection whose client may still be sending: half-close so
/// the client reads the reply and then end-of-stream, discard what it still
/// sends until it closes or a time and byte bound runs out, then close.
/// Closing with unread input would reset the connection, and the client's
/// final recv could fail with ECONNRESET instead of returning 0. The bounds
/// keep a client that never stops sending from holding the thread.
void lingeringClose(int Fd) {
  constexpr auto MaxLinger = std::chrono::seconds(2);
  constexpr size_t MaxDiscard = size_t(64) << 20;
  ::shutdown(Fd, SHUT_WR);
  const auto Deadline = std::chrono::steady_clock::now() + MaxLinger;
  std::vector<char> Sink(64 << 10);
  size_t Discarded = 0;
  while (Discarded < MaxDiscard) {
    auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    Deadline - std::chrono::steady_clock::now())
                    .count();
    if (Left <= 0)
      break;
    pollfd P{Fd, POLLIN, 0};
    int R = ::poll(&P, 1, static_cast<int>(Left));
    if (R < 0 && errno != EINTR)
      break;
    if (R <= 0)
      continue;
    ssize_t N = ::recv(Fd, Sink.data(), Sink.size(), 0);
    if (N <= 0)
      break; // The client closed (or the connection failed).
    Discarded += static_cast<size_t>(N);
  }
  ::close(Fd);
}

bool fillSockaddr(const std::string &Path, sockaddr_un &Addr) {
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path))
    return false;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

/// SplitMix64 finalizer for deterministic retry jitter.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

} // namespace

struct ServiceServer::Impl {
  Impl(ServiceCore &Core, const AdmissionOptions &AOpts)
      : Admission(Core, AOpts) {}

  AdmissionController Admission;
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Connections{0};
  std::atomic<unsigned> LiveConns{0};
  std::atomic<uint64_t> Autosaves{0};

  struct Conn {
    std::thread T;
    std::shared_ptr<std::atomic<bool>> Done;
  };
  std::mutex ConnsM;
  std::vector<Conn> Conns;

  /// Joins every finished connection thread (\p All joins the live ones
  /// too — only safe once the draining predicate is visible to them).
  void reapConns(bool All) {
    std::vector<std::thread> Join;
    {
      std::lock_guard<std::mutex> Lock(ConnsM);
      for (size_t I = 0; I < Conns.size();) {
        if (All || Conns[I].Done->load(std::memory_order_acquire)) {
          Join.push_back(std::move(Conns[I].T));
          Conns.erase(Conns.begin() + I);
        } else {
          ++I;
        }
      }
    }
    for (std::thread &T : Join)
      T.join();
  }
};

ServiceServer::ServiceServer(ServiceCore &Core, std::string SocketPath,
                             ServerOptions Opts)
    : Core(Core), SocketPath(std::move(SocketPath)), Opts(Opts),
      State(new Impl(Core, Opts.Admission)) {}

ServiceServer::~ServiceServer() {
  if (ListenFd >= 0)
    ::close(ListenFd);
  delete State;
}

const AdmissionController &ServiceServer::admission() const {
  return State->Admission;
}

uint64_t ServiceServer::autosaves() const { return State->Autosaves.load(); }

Status ServiceServer::start() {
  sockaddr_un Addr;
  if (!fillSockaddr(SocketPath, Addr))
    return Status::error(DiagCode::IOError,
                         "socket path empty or too long for AF_UNIX: '" +
                             SocketPath + "'");
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return Status::error(DiagCode::IOError,
                         std::string("socket: ") + std::strerror(errno));
  // A stale file from a dead server would make bind fail; replace it. A
  // *live* server would still hold the name after unlink, so two daemons
  // on one path is a user error this does not try to detect.
  ::unlink(SocketPath.c_str());
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0)
    return Status::error(DiagCode::IOError, "bind '" + SocketPath +
                                                "': " + std::strerror(errno));
  if (::listen(ListenFd, 64) < 0)
    return Status::error(DiagCode::IOError,
                         std::string("listen: ") + std::strerror(errno));
  return Status::success();
}

void ServiceServer::stop() { State->Stop.store(true); }

uint64_t ServiceServer::serve() {
  auto Draining = [this] {
    return Core.shutdownRequested() || State->Stop.load();
  };

  // Periodic snapshot autosave: a crash then loses at most one interval of
  // cache warmth instead of the whole uptime (the shutdown-path save
  // becomes a final flush, not the only persistence point).
  std::thread Autosaver;
  if (Opts.SnapshotIntervalS > 0 && !Core.options().SnapshotPath.empty()) {
    Autosaver = std::thread([this, Draining] {
      auto Last = std::chrono::steady_clock::now();
      while (!Draining()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        auto Now = std::chrono::steady_clock::now();
        if (Now - Last < std::chrono::seconds(Opts.SnapshotIntervalS))
          continue;
        Last = Now;
        Status S = Core.saveSnapshot();
        if (S.ok())
          State->Autosaves.fetch_add(1);
        else
          std::fprintf(stderr, "%s\n", S.diagnostic().str().c_str());
      }
    });
  }

  auto Connection = [this, Draining](int Fd, uint64_t ConnIdx,
                                     std::shared_ptr<std::atomic<bool>>
                                         Done) {
    std::string Buf;
    char Chunk[4096];
    auto LastActivity = std::chrono::steady_clock::now();
    bool Close = false;
    bool TooLong = false;
    while (!Close && !Draining()) {
      pollfd P{Fd, POLLIN, 0};
      int R = ::poll(&P, 1, 100);
      if (R < 0 && errno != EINTR)
        break;
      if (R <= 0) {
        if (Opts.IdleTimeoutMs > 0 &&
            std::chrono::steady_clock::now() - LastActivity >
                std::chrono::milliseconds(Opts.IdleTimeoutMs)) {
          sendErrorLine(Fd, serviceErrorReply(
                                "idle-timeout",
                                "connection idle for more than " +
                                    std::to_string(Opts.IdleTimeoutMs) +
                                    "ms; closing"));
          break;
        }
        continue;
      }
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0)
        break; // EOF or error: client is done.
      LastActivity = std::chrono::steady_clock::now();
      Buf.append(Chunk, static_cast<size_t>(N));
      size_t Start = 0, Nl;
      while ((Nl = Buf.find('\n', Start)) != std::string::npos) {
        if (Nl - Start > Opts.MaxLineBytes) {
          sendErrorLine(Fd, [this] {
            JsonValue R = serviceErrorReply(
                "line-too-long",
                "request line exceeds " +
                    std::to_string(Opts.MaxLineBytes) +
                    " bytes; closing connection");
            R.set("max_line_bytes",
                  JsonValue::integer(
                      static_cast<int64_t>(Opts.MaxLineBytes)));
            return R;
          }());
          Close = TooLong = true;
          break;
        }
        if (injectConnKill(ConnIdx)) {
          // Service chaos: the connection dies mid-request, after the
          // request arrived but before any reply. The client sees a
          // clean close; the daemon must stay healthy.
          Close = true;
          break;
        }
        std::string Reply = State->Admission.process(
            Buf.substr(Start, Nl - Start));
        Reply += '\n';
        if (!sendAll(Fd, Reply.data(), Reply.size())) {
          Start = Buf.size();
          break;
        }
        Start = Nl + 1;
      }
      if (Close)
        break;
      Buf.erase(0, Start);
      // A buffered partial line may never see its newline (a hostile or
      // broken client streaming bytes forever): cap it.
      if (Buf.size() > Opts.MaxLineBytes) {
        sendErrorLine(Fd, [this] {
          JsonValue R = serviceErrorReply(
              "line-too-long",
              "request line exceeds " + std::to_string(Opts.MaxLineBytes) +
                  " bytes without a newline; closing connection");
          R.set("max_line_bytes",
                JsonValue::integer(static_cast<int64_t>(Opts.MaxLineBytes)));
          return R;
        }());
        TooLong = true;
        break;
      }
    }
    if (TooLong)
      lingeringClose(Fd);
    else
      ::close(Fd);
    State->LiveConns.fetch_sub(1);
    Done->store(true, std::memory_order_release);
  };

  while (!Draining()) {
    pollfd P{ListenFd, POLLIN, 0};
    int R = ::poll(&P, 1, 100);
    if (R < 0 && errno != EINTR)
      break;
    State->reapConns(false);
    if (R <= 0)
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    if (State->LiveConns.load() >= Opts.MaxConnections) {
      // Connection cap: answer with the same structured shed reply the
      // admission layer uses, then close — no thread is spent on it.
      JsonValue Reply = serviceErrorReply(
          "overloaded", "connection limit (" +
                            std::to_string(Opts.MaxConnections) +
                            ") reached");
      Reply.set("retry_after_ms",
                JsonValue::integer(static_cast<int64_t>(
                    State->Admission.retryAfterMs())));
      sendErrorLine(Fd, std::move(Reply));
      ::close(Fd);
      continue;
    }
    uint64_t ConnIdx = State->Connections.fetch_add(1);
    State->LiveConns.fetch_add(1);
    auto Done = std::make_shared<std::atomic<bool>>(false);
    std::lock_guard<std::mutex> Lock(State->ConnsM);
    State->Conns.push_back(
        {std::thread(Connection, Fd, ConnIdx, Done), Done});
  }

  // Graceful drain: no new connections (the loop above has exited), no new
  // admissions; everything queued or in flight finishes and its reply is
  // flushed by the still-running connection threads, which then observe
  // the draining predicate and exit within one poll interval.
  State->Admission.drain();
  State->reapConns(true);
  if (Autosaver.joinable())
    Autosaver.join();
  ::close(ListenFd);
  ListenFd = -1;
  ::unlink(SocketPath.c_str());
  return State->Connections.load();
}

namespace {

/// One connect-send-receive round against the daemon. Factored out so the
/// retrying wrapper below can re-send on `overloaded`.
bool requestOnce(const std::string &SocketPath,
                 const std::string &RequestLine, std::string &ReplyLine,
                 std::string *Err, unsigned TimeoutMs) {
  sockaddr_un Addr;
  if (!fillSockaddr(SocketPath, Addr)) {
    if (Err)
      *Err = "socket path empty or too long for AF_UNIX";
    return false;
  }

  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMs);
  int Fd = -1;
  for (;;) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0) {
      if (Err)
        *Err = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0)
      break;
    int E = errno;
    ::close(Fd);
    Fd = -1;
    // The server may still be coming up (no file yet, or bound but not
    // listening); retry those until the deadline.
    if ((E != ENOENT && E != ECONNREFUSED) ||
        std::chrono::steady_clock::now() >= Deadline) {
      if (Err)
        *Err = "connect '" + SocketPath + "': " + std::strerror(E);
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  std::string Req = RequestLine;
  if (Req.empty() || Req.back() != '\n')
    Req += '\n';

  // Service chaos: a drip-feeding client sends its request a few bytes at
  // a time with pauses, exercising the server's split-read reassembly and
  // idle accounting.
  uint64_t DripBytes = 0, DripMs = 0;
  bool Sent;
  if (injectClientDrip(DripBytes, DripMs)) {
    Sent = true;
    for (size_t Off = 0; Off < Req.size() && Sent;
         Off += static_cast<size_t>(DripBytes)) {
      size_t Len = std::min(static_cast<size_t>(DripBytes),
                            Req.size() - Off);
      Sent = sendAll(Fd, Req.data() + Off, Len);
      if (DripMs > 0 && Off + Len < Req.size())
        std::this_thread::sleep_for(std::chrono::milliseconds(DripMs));
    }
  } else {
    Sent = sendAll(Fd, Req.data(), Req.size());
  }
  if (!Sent) {
    if (Err)
      *Err = std::string("send: ") + std::strerror(errno);
    ::close(Fd);
    return false;
  }

  ReplyLine.clear();
  char Chunk[4096];
  for (;;) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (Err)
        *Err = std::string("recv: ") + std::strerror(errno);
      ::close(Fd);
      return false;
    }
    if (N == 0) {
      if (Err)
        *Err = "connection closed before a reply line arrived";
      ::close(Fd);
      return false;
    }
    ReplyLine.append(Chunk, static_cast<size_t>(N));
    size_t Nl = ReplyLine.find('\n');
    if (Nl != std::string::npos) {
      ReplyLine.erase(Nl);
      break;
    }
  }
  ::close(Fd);
  return true;
}

} // namespace

bool shackle::serviceRequest(const std::string &SocketPath,
                             const std::string &RequestLine,
                             std::string &ReplyLine, std::string *Err,
                             unsigned TimeoutMs) {
  ServiceRequestOptions Opts;
  Opts.TimeoutMs = TimeoutMs;
  return serviceRequest(SocketPath, RequestLine, ReplyLine, Err, Opts);
}

bool shackle::serviceRequest(const std::string &SocketPath,
                             const std::string &RequestLine,
                             std::string &ReplyLine, std::string *Err,
                             const ServiceRequestOptions &Opts) {
  unsigned Retries = 0;
  for (unsigned Attempt = 0;; ++Attempt) {
    if (!requestOnce(SocketPath, RequestLine, ReplyLine, Err,
                     Opts.TimeoutMs)) {
      if (Opts.RetriesOut)
        *Opts.RetriesOut = Retries;
      return false;
    }
    if (Attempt >= Opts.MaxRetries)
      break;
    JsonValue Reply;
    std::string ParseErr;
    if (!parseJson(ReplyLine, Reply, &ParseErr) ||
        Reply.getString("code") != "overloaded")
      break; // Anything but a shed reply is final.
    // Exponential backoff with deterministic jitter, honoring the
    // server's retry_after_ms as a floor: the server knows its backlog
    // better than any client-side schedule.
    uint64_t Hint = static_cast<uint64_t>(
        std::max<int64_t>(0, Reply.getInt("retry_after_ms", 0)));
    uint64_t Backoff = Opts.BackoffBaseMs << std::min(Attempt, 20u);
    Backoff = std::min(Backoff, Opts.BackoffMaxMs);
    uint64_t Jittered =
        Backoff / 2 + mix64(Opts.Seed ^ (Attempt + 1)) % (Backoff / 2 + 1);
    uint64_t DelayMs = std::max(Hint, Jittered);
    std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
    ++Retries;
  }
  if (Opts.RetriesOut)
    *Opts.RetriesOut = Retries;
  return true;
}
