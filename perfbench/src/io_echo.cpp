// io_echo: an in-process TCP echo server over loopback on min(CPUs, 2)
// workers, driven as a closed loop by kEchoConns client connections that
// each send kEchoRequests requests of kEchoPayload seeded bytes and wait
// for every echo before the next request.  The io path (epoll reactor,
// suspend on EAGAIN, resume, run queue) does most of the work.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <optional>

#include "checks.hpp"
#include "io/net.hpp"
#include "sync/join_counter.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

/// Traced runs record the spans of every kTraceEvery-th request only:
/// 3 spans for each of 3,000 requests per repetition, so that the
/// request spans of about 27 repetitions fit Tracer::kMaxRequestSpans.
constexpr long kTraceEvery = 64;

class IoEcho final : public RuntimeWorkload {
 public:
  void setup(std::uint64_t seed) override {
    {
      Span s(tracer, "runtime.construct", rep_span);
      rt_ = std::make_unique<st::Runtime>(os_workers(2));
    }
    key_ = mix_seed(seed, 2);
  }

  void rep(Outcome& out) override {
    completed_ = 0;
    client_sent_ = 0;
    server_echoed_ = 0;
    rt_->run([this] {
      st::io::TcpListener listener = st::io::TcpListener::listen(0);
      if (!listener.valid()) return;  // every request fails
      st::JoinCounter sessions(0);
      st::JoinCounter acceptor_done(1);
      st::fork([this, &listener, &sessions, &acceptor_done] {
        accept_loop(listener, sessions);
        acceptor_done.finish();
      });
      st::JoinCounter clients(kEchoConns);
      const std::uint16_t port = listener.port();
      for (long c = 0; c < kEchoConns; ++c) {
        st::fork([this, c, port, &clients] {
          client(c, port);
          clients.finish();
        });
      }
      clients.join();
      listener.close();
      acceptor_done.join();
      sessions.join();
    });
    const long attempted = kEchoConns * kEchoRequests;
    const long completed = completed_.load();
    out.attempted += attempted;
    out.failed += attempted - completed;
    {
      std::lock_guard<std::mutex> g(error_mu_);
      out.check(error_);
    }
    out.check(check_echo_totals(attempted, completed, kEchoPayload, client_sent_.load(),
                                server_echoed_.load()));
  }

  void layer_metrics(const Tracer& tr, Metrics& m) const override {
    m.push_back({"io.echo_p50_us", tr.median_ns("io.request") / 1e3, "us"});
    m.push_back({"io.echo_p99_us", tr.quantile_ns("io.request", 0.99) / 1e3, "us"});
    m.push_back({"io.dial_us", tr.median_ns("io.dial") / 1e3, "us"});
    m.push_back({"io.accept_us", tr.median_ns("io.accept") / 1e3, "us"});
    m.push_back({"io.write_us", tr.median_ns("io.write") / 1e3, "us"});
    m.push_back({"io.read_wait_us", tr.median_ns("io.read_wait") / 1e3, "us"});
    const double wakeups = counter_median(&st::RuntimeStats::io_wakeups);
    const double events = counter_median(&st::RuntimeStats::io_events);
    m.push_back({"io.wakeups", wakeups, "count"});
    m.push_back({"io.events", events, "count"});
    m.push_back({"io.events_per_wakeup", wakeups > 0 ? events / wakeups : 0.0, "ratio"});
    m.push_back({"io.migrations", counter_median(&st::RuntimeStats::io_migrations), "count"});
    m.push_back({"runtime.suspends", counter_median(&st::RuntimeStats::suspends), "count"});
    m.push_back({"runtime.resumes", counter_median(&st::RuntimeStats::resumes), "count"});
  }

 private:
  void accept_loop(st::io::TcpListener& listener, st::JoinCounter& sessions) {
    for (;;) {
      Span a(tracer, "io.accept", rep_span);
      std::optional<st::io::TcpStream> s = listener.accept();
      if (!s.has_value()) {
        a.discard();  // the wait that ends with the listener's close
        return;
      }
      a.end();
      sessions.add(1);
      auto* boxed = new st::io::TcpStream(std::move(*s));
      st::fork([this, boxed, &sessions] {
        session(*boxed);
        delete boxed;
        sessions.finish();
      });
    }
  }

  void session(st::io::TcpStream& s) {
    unsigned char buf[4096];
    std::uint64_t echoed = 0;
    for (;;) {
      const ssize_t n = s.read(buf, sizeof buf);
      if (n <= 0) break;
      if (!s.write_all(buf, static_cast<std::size_t>(n))) break;
      echoed += static_cast<std::uint64_t>(n);
    }
    server_echoed_.fetch_add(echoed, std::memory_order_relaxed);
  }

  void client(long c, std::uint16_t port) {
    st::io::TcpStream s;
    {
      Span d(tracer, "io.dial", rep_span);
      s = st::io::dial("127.0.0.1", port);
    }
    if (!s.valid()) return;
    unsigned char reply[kEchoPayload];
    long done = 0;
    std::uint64_t sent = 0;
    for (long m = 0; m < kEchoRequests; ++m) {
      const long req = c * kEchoRequests + m;
      unsigned char request[kEchoPayload];
      make_request(req, request);
      Tracer* t = req % kTraceEvery == 0 ? tracer : nullptr;
      Span r(t, "io.request", rep_span, req);
      bool ok;
      {
        Span w(t, "io.write", r.id(), req);
        ok = s.write_all(request, kEchoPayload);
      }
      if (!ok) break;
      sent += kEchoPayload;
      {
        Span rd(t, "io.read_wait", r.id(), req);
        ok = s.read_exact(reply, kEchoPayload);
      }
      if (!ok) break;
      r.end();
      ++done;
      std::string why = check_echo(request, reply, kEchoPayload);
      if (!why.empty()) {
        std::lock_guard<std::mutex> g(error_mu_);
        if (error_.empty()) error_ = std::move(why);
      }
    }
    s.shutdown_write();
    unsigned char drain[64];
    while (s.read(drain, sizeof drain) > 0) {
    }
    completed_.fetch_add(done, std::memory_order_relaxed);
    client_sent_.fetch_add(sent, std::memory_order_relaxed);
  }

  /// Request `req`'s payload: its index, then bytes derived from the
  /// seed and the index, so that every request is distinct.  Made where
  /// it is sent rather than held in a table, so set-up is not spent
  /// filling megabytes of input.
  void make_request(long req, unsigned char* p) const {
    const auto idx = static_cast<std::uint64_t>(req);
    std::memcpy(p, &idx, sizeof idx);
    for (std::size_t k = sizeof idx; k < kEchoPayload; k += sizeof(std::uint64_t)) {
      const std::uint64_t r = mix_seed(key_ ^ idx, k);
      std::memcpy(p + k, &r, std::min(sizeof r, kEchoPayload - k));
    }
  }

  std::uint64_t key_ = 0;
  std::atomic<long> completed_{0};
  std::atomic<std::uint64_t> client_sent_{0};
  std::atomic<std::uint64_t> server_echoed_{0};
  std::mutex error_mu_;
  std::string error_;
};

}  // namespace

std::unique_ptr<Workload> make_io_echo() { return std::make_unique<IoEcho>(); }

}  // namespace perfbench
