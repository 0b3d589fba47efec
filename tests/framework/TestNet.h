//===- tests/framework/TestNet.h - Parallel-safe networking helpers --------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers that keep socket tests deterministic under `ctest -j`:
/// hard-coded port numbers race with whatever else the machine (or a
/// parallel test) is doing, so every "unreachable port" in a test must be
/// a port this process *owns*. The same goes for a server that fails on
/// purpose (`AcceptAndClose`).
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_TESTS_FRAMEWORK_TESTNET_H
#define SGXELIDE_TESTS_FRAMEWORK_TESTNET_H

#include <arpa/inet.h>
#include <atomic>
#include <cstdint>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

namespace elide {
namespace testing {

/// A loopback port that deterministically refuses connections: the
/// kernel assigned it to us via bind(2), and without a listen(2) every
/// connect gets ECONNREFUSED. Holding the socket keeps any parallel test
/// from binding the same port for the lifetime of this object.
class ClosedPort {
public:
  ClosedPort() {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return;
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = 0; // Kernel-assigned: never collides with a listener.
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
      ::close(Fd);
      Fd = -1;
      return;
    }
    socklen_t Len = sizeof(Addr);
    if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
      BoundPort = ntohs(Addr.sin_port);
  }
  ~ClosedPort() {
    if (Fd >= 0)
      ::close(Fd);
  }
  ClosedPort(const ClosedPort &) = delete;
  ClosedPort &operator=(const ClosedPort &) = delete;

  /// False if the environment could not even bind a loopback socket.
  bool ok() const { return Fd >= 0 && BoundPort != 0; }
  uint16_t port() const { return BoundPort; }

private:
  int Fd = -1;
  uint16_t BoundPort = 0;
};

/// Tries to re-bind \p Port on loopback (without listening). Returns the
/// owned fd, or -1 if the port is taken. Used by shutdown tests: after a
/// server stops, re-binding its port parks it so the "connections are now
/// refused" assertion cannot race a parallel test adopting the port.
inline int tryBindPort(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// A loopback server that accepts every connection and closes it at
/// once: what a client meets when a server dies right after accept(2).
/// Counts the connections it took, so a test can see how many times a
/// client came back.
class AcceptAndClose {
public:
  AcceptAndClose() {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return;
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t Len = sizeof(Addr);
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
        ::listen(Fd, 16) < 0 ||
        ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) < 0) {
      ::close(Fd);
      Fd = -1;
      return;
    }
    BoundPort = ntohs(Addr.sin_port);
    Acceptor = std::thread([this] {
      while (!Stop.load()) {
        pollfd P{Fd, POLLIN, 0};
        if (::poll(&P, 1, 10) <= 0)
          continue;
        int Client = ::accept(Fd, nullptr, nullptr);
        if (Client < 0)
          continue;
        Accepted.fetch_add(1); // Counted before the client can see EOF.
        ::close(Client);
      }
    });
  }
  ~AcceptAndClose() {
    Stop.store(true);
    if (Acceptor.joinable())
      Acceptor.join();
    if (Fd >= 0)
      ::close(Fd);
  }
  AcceptAndClose(const AcceptAndClose &) = delete;
  AcceptAndClose &operator=(const AcceptAndClose &) = delete;

  bool ok() const { return Fd >= 0 && BoundPort != 0; }
  uint16_t port() const { return BoundPort; }
  /// Connections accepted (and closed) so far.
  int accepted() const { return Accepted.load(); }

private:
  int Fd = -1;
  uint16_t BoundPort = 0;
  std::atomic<bool> Stop{false};
  std::atomic<int> Accepted{0};
  std::thread Acceptor;
};

} // namespace testing
} // namespace elide

#endif // SGXELIDE_TESTS_FRAMEWORK_TESTNET_H
