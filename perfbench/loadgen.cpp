/// \file loadgen.cpp
/// \brief Open-loop NDJSON load generator for `finser_cli serve`.
///
/// Usage: finser_loadgen <schedule> <replies> <server> [server args...]
///
/// <schedule> holds one request per line as "<due_ns>\t<json>", sorted by
/// due time (nanoseconds after start). The generator starts the server with
/// its stdin and stdout on pipes and, in one thread, writes every request at
/// its due time — non-blocking, so a stalled server never delays the
/// schedule itself, only the delivery — while reading replies as they
/// arrive. Each reply is written to <replies> as "<arrival_ns>\t<line>".
/// When the schedule is sent it appends a `stats` request and `shutdown`,
/// closes the server's stdin, reads to EOF and reaps the server.
///
/// Prints one JSON line: exit code, wall and CPU seconds and peak RSS of the
/// server, and the generator's own lateness (p99 and max of due-to-enqueue
/// delay) — a late generator voids a run.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

namespace {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "finser_loadgen: %s: %s\n", what, std::strerror(errno));
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: finser_loadgen <schedule> <replies> <server> "
                 "[args...]\n");
    return 2;
  }
  std::vector<std::int64_t> due;
  std::vector<std::string> lines;
  {
    std::ifstream in(argv[1]);
    if (!in) die("cannot read schedule");
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t tab = line.find('\t');
      if (tab == std::string::npos) continue;
      due.push_back(std::stoll(line.substr(0, tab)));
      lines.push_back(line.substr(tab + 1) + "\n");
    }
  }
  std::FILE* replies = std::fopen(argv[2], "w");
  if (replies == nullptr) die("cannot write replies");

  int to_server[2], from_server[2];
  if (pipe(to_server) != 0 || pipe(from_server) != 0) die("pipe");
  signal(SIGPIPE, SIG_IGN);
  const pid_t pid = fork();
  if (pid < 0) die("fork");
  if (pid == 0) {
    dup2(to_server[0], 0);
    dup2(from_server[1], 1);
    close(to_server[0]);
    close(to_server[1]);
    close(from_server[0]);
    close(from_server[1]);
    execv(argv[3], argv + 3);
    std::_Exit(127);
  }
  close(to_server[0]);
  close(from_server[1]);
  const int wfd = to_server[1];
  const int rfd = from_server[0];
  fcntl(wfd, F_SETFL, fcntl(wfd, F_GETFL) | O_NONBLOCK);
  fcntl(rfd, F_SETFL, fcntl(rfd, F_GETFL) | O_NONBLOCK);

  const std::int64_t t0 = now_ns();
  std::vector<double> lag_ms;
  lag_ms.reserve(lines.size());
  std::string out;     // enqueued, not yet written
  std::size_t out_off = 0;
  std::string partial;  // reply bytes after the last newline
  std::size_t next = 0;
  bool trailer = false;
  bool wopen = true;
  bool ropen = true;
  char buf[1 << 16];

  while (ropen) {
    std::int64_t now = now_ns() - t0;
    while (next < lines.size() && due[next] <= now) {
      lag_ms.push_back(static_cast<double>(now - due[next]) * 1e-6);
      out += lines[next++];
    }
    if (next == lines.size() && !trailer) {
      out += "{\"id\":\"stats\",\"op\":\"stats\"}\n{\"op\":\"shutdown\"}\n";
      trailer = true;
    }
    if (wopen && out_off < out.size()) {
      const ssize_t n = write(wfd, out.data() + out_off, out.size() - out_off);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
        if (out_off == out.size()) {
          out.clear();
          out_off = 0;
        }
      } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
        wopen = false;  // server closed its stdin (it exited)
        close(wfd);
      }
    }
    if (wopen && trailer && out.empty()) {
      close(wfd);
      wopen = false;
    }

    pollfd fds[2];
    nfds_t nfds = 0;
    fds[nfds++] = pollfd{rfd, POLLIN, 0};
    if (wopen && !out.empty()) fds[nfds++] = pollfd{wfd, POLLOUT, 0};
    now = now_ns() - t0;
    std::int64_t wait_ns = 100000000;  // 100 ms when nothing is scheduled
    if (next < lines.size()) {
      wait_ns = std::max<std::int64_t>(0, due[next] - now);
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                      static_cast<long>(wait_ns % 1000000000)};
    if (ppoll(fds, nfds, &ts, nullptr) < 0 && errno != EINTR) die("ppoll");
    if (fds[0].revents != 0) {
      for (;;) {
        const ssize_t n = read(rfd, buf, sizeof buf);
        if (n > 0) {
          const std::int64_t at = now_ns() - t0;
          partial.append(buf, static_cast<std::size_t>(n));
          std::size_t start = 0, nl;
          while ((nl = partial.find('\n', start)) != std::string::npos) {
            std::fprintf(replies, "%lld\t%.*s\n", static_cast<long long>(at),
                         static_cast<int>(nl - start), partial.data() + start);
            start = nl + 1;
          }
          partial.erase(0, start);
        } else if (n == 0) {
          ropen = false;
          break;
        } else {
          if (errno != EAGAIN && errno != EINTR) die("read");
          break;
        }
      }
    }
  }
  close(rfd);
  if (wopen) close(wfd);
  int status = 0;
  rusage ru{};
  if (wait4(pid, &status, 0, &ru) < 0) die("wait4");
  const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
  std::fclose(replies);

  std::sort(lag_ms.begin(), lag_ms.end());
  double lag_p99 = 0.0;  // nearest rank
  if (!lag_ms.empty()) {
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(0.99 * static_cast<double>(lag_ms.size()))));
    lag_p99 = lag_ms[std::min(lag_ms.size(), rank) - 1];
  }
  const double cpu =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  const int code =
      WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  std::printf(
      "{\"code\":%d,\"wall_s\":%.9f,\"cpu_s\":%.6f,\"rss_mb\":%.3f,"
      "\"lag_p99_ms\":%.6f,\"lag_max_ms\":%.6f}\n",
      code, wall, cpu, static_cast<double>(ru.ru_maxrss) / 1024.0, lag_p99,
      lag_ms.empty() ? 0.0 : lag_ms.back());
  return 0;
}
