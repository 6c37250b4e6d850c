// Fluid network link, capture and HTTP model tests.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "http/http.h"
#include "net/capture.h"
#include "net/link.h"

namespace psc {
namespace {

TEST(Link, TransmissionTimePlusLatency) {
  sim::Simulation sim;
  net::Link link(sim, 1e6, millis(50));  // 1 Mbps, 50 ms
  TimePoint arrival{};
  link.send(Bytes(12500, 0), [&](TimePoint t, util::BufferSlice) { arrival = t; });
  sim.run_all();
  // 12500 B = 100 kbit -> 0.1 s serialize + 0.05 s propagate.
  EXPECT_NEAR(to_s(arrival), 0.15, 1e-9);
}

TEST(Link, FifoQueueingDelaysSecondTransfer) {
  sim::Simulation sim;
  net::Link link(sim, 1e6, Duration{0});
  std::vector<double> arrivals;
  link.send(Bytes(12500, 0), [&](TimePoint t, util::BufferSlice) {
    arrivals.push_back(to_s(t));
  });
  link.send(Bytes(12500, 0), [&](TimePoint t, util::BufferSlice) {
    arrivals.push_back(to_s(t));
  });
  sim.run_all();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 0.1, 1e-9);
  EXPECT_NEAR(arrivals[1], 0.2, 1e-9);  // queued behind the first
}

TEST(Link, DeliveryOrderPreserved) {
  sim::Simulation sim;
  net::Link link(sim, 10e6, millis(10));
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    link.send(Bytes(100, 0), [&order, i](TimePoint, util::BufferSlice) {
      order.push_back(i);
    });
  }
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Link, RateChangeAffectsSubsequentSends) {
  sim::Simulation sim;
  net::Link link(sim, 1e6, Duration{0});
  link.set_rate(2e6);
  TimePoint arrival{};
  link.send(Bytes(25000, 0), [&](TimePoint t, util::BufferSlice) { arrival = t; });
  sim.run_all();
  EXPECT_NEAR(to_s(arrival), 0.1, 1e-9);  // 200 kbit at 2 Mbps
}

TEST(Link, ChainedLinksBottleneckAtSlower) {
  sim::Simulation sim;
  net::Link fast(sim, 100e6, millis(5));
  net::Link slow(sim, 1e6, millis(5));
  TimePoint arrival{};
  fast.send(Bytes(12500, 0), [&](TimePoint, util::BufferSlice data) {
    slow.send(std::move(data), [&](TimePoint t2, util::BufferSlice) { arrival = t2; });
  });
  sim.run_all();
  // fast: 1 ms + 5 ms; slow: 100 ms + 5 ms.
  EXPECT_NEAR(to_s(arrival), 0.001 + 0.005 + 0.1 + 0.005, 1e-6);
}

TEST(Link, NoiseIsDeterministicPerSeed) {
  auto run = [] {
    sim::Simulation sim;
    net::Link link(sim, 1e6, Duration{0});
    link.set_noise(Rng(77), seconds(0.5), 0.5, 1.0);
    std::vector<double> arrivals;
    for (int i = 0; i < 10; ++i) {
      sim.schedule_at(time_at(i * 1.0), [&link, &arrivals] {
        link.send(Bytes(1250, 0), [&arrivals](TimePoint t, util::BufferSlice) {
          arrivals.push_back(to_s(t));
        });
      });
    }
    sim.run_all();
    return arrivals;
  };
  EXPECT_EQ(run(), run());
}

TEST(Link, CountsBytes) {
  sim::Simulation sim;
  net::Link link(sim, 1e6, Duration{0});
  link.send(Bytes(500, 0), [](TimePoint, util::BufferSlice) {});
  link.send(Bytes(700, 0), [](TimePoint, util::BufferSlice) {});
  EXPECT_EQ(link.bytes_sent(), 1200u);
}

TEST(Link, SetRateRepacesInFlightTail) {
  sim::Simulation sim;
  net::Link link(sim, 1e6, millis(50));
  TimePoint arrival{};
  // 125000 B = 1 Mbit -> 1.0 s to serialize at 1 Mbps.
  link.send(Bytes(125000, 0), [&](TimePoint t, util::BufferSlice) { arrival = t; });
  sim.schedule_at(time_at(0.5), [&link] { link.set_rate(10e6); });
  sim.run_all();
  // Half the bytes went out at 1 Mbps (0.5 s); the remaining 500 kbit
  // re-pace at 10 Mbps (0.05 s). Old kernel would deliver at 1.05 s.
  EXPECT_NEAR(to_s(arrival), 0.5 + 0.05 + 0.05, 1e-9);
}

TEST(Link, SetRateRepacesQueuedTransfers) {
  sim::Simulation sim;
  net::Link link(sim, 1e6, Duration{0});
  std::vector<double> arrivals;
  link.send(Bytes(125000, 0), [&](TimePoint t, util::BufferSlice) {
    arrivals.push_back(to_s(t));
  });
  link.send(Bytes(125000, 0), [&](TimePoint t, util::BufferSlice) {
    arrivals.push_back(to_s(t));
  });
  sim.schedule_at(time_at(0.5), [&link] { link.set_rate(10e6); });
  sim.run_all();
  ASSERT_EQ(arrivals.size(), 2u);
  // First: 0.5 s done + 0.05 s tail. Second: fully unserved at the rate
  // change, re-paced behind the first at the new rate (0.1 s).
  EXPECT_NEAR(arrivals[0], 0.55, 1e-9);
  EXPECT_NEAR(arrivals[1], 0.65, 1e-9);
}

TEST(Link, RateCollapseStretchesInFlightTail) {
  sim::Simulation sim;
  net::Link link(sim, 1e6, Duration{0});
  TimePoint arrival{};
  link.send(Bytes(125000, 0), [&](TimePoint t, util::BufferSlice) { arrival = t; });
  sim.schedule_at(time_at(0.5), [&link] { link.set_fault_factor(0.1); });
  sim.run_all();
  // Remaining 500 kbit now trickle at 100 kbps: 5 s more.
  EXPECT_NEAR(to_s(arrival), 0.5 + 5.0, 1e-9);
}

TEST(Link, FreezeUntilStallsInFlightTransfer) {
  sim::Simulation sim;
  net::Link link(sim, 1e6, Duration{0});
  TimePoint arrival{};
  link.send(Bytes(125000, 0), [&](TimePoint t, util::BufferSlice) { arrival = t; });
  sim.schedule_at(time_at(0.5), [&link] { link.freeze_until(time_at(3.0)); });
  sim.run_all();
  // Blackout from 0.5 s to 3.0 s; the remaining half second of
  // serialization resumes when the link thaws.
  EXPECT_NEAR(to_s(arrival), 3.5, 1e-9);
}

TEST(Link, FifoHoldsUnderRepacingFaultsAndShaping) {
  // The pending table pops its front on every completion, which is only
  // right if transfers complete in send order. Hit one link with
  // everything that re-paces or delays a queued tail while transfers are
  // in flight — rate changes, a fault factor, overlapping freezes, a
  // shaped-queue overflow (2 loss recoveries), throughput noise, a
  // zero-byte pacing send tying with its predecessor — and require send
  // order at the arrival times the deque-and-search table produced.
  sim::Simulation sim;
  net::Link link(sim, 2e6, millis(30));
  link.set_noise(Rng(5), seconds(0.25), 0.6, 1.2);
  link.enable_shaped_queue(20000, Rng(9));
  std::vector<std::pair<int, double>> got;
  int next = 0;
  const auto send = [&](std::size_t size, bool pacing_only) {
    const int i = next++;
    auto fn = [&got, i](TimePoint t, util::BufferSlice) {
      got.emplace_back(i, to_s(t));
    };
    if (pacing_only) {
      link.send(size, fn);
    } else {
      link.send(Bytes(size, 7), fn);
    }
  };
  for (int k = 0; k < 10; ++k) send(1500 + 700 * k, k % 3 == 0);
  send(0, true);
  sim.schedule_at(time_at(0.05), [&] { link.set_rate(0.5e6); });
  sim.schedule_at(time_at(0.12), [&] {
    link.set_fault_factor(0.3);
    send(4000, false);
  });
  sim.schedule_at(time_at(0.2), [&] { link.freeze_until(time_at(0.6)); });
  sim.schedule_at(time_at(0.3), [&] {
    for (int k = 0; k < 6; ++k) send(9000, k % 2 == 0);
  });
  sim.schedule_at(time_at(0.45), [&] {
    link.freeze_until(time_at(0.5));  // inside the first freeze: no-op
    link.set_fault_factor(0.8);
  });
  sim.schedule_at(time_at(0.7), [&] {
    link.set_fault_factor(1.0);
    send(300, false);
  });
  sim.schedule_at(time_at(0.8), [&] { link.set_rate(4e6); });
  sim.schedule_at(time_at(2.5), [&] {
    send(50000, false);
    send(10, true);
  });
  sim.schedule_at(time_at(2.6), [&] { link.set_rate(1e6); });
  sim.run_all();

  EXPECT_EQ(link.loss_recovery_events(), 2u);
  const std::vector<std::pair<int, double>> want = {
      {0, 0.037211011263895137}, {1, 0.047787161117608008},
      {2, 0.061728449561138612}, {3, 0.07903487659448695},
      {4, 0.18086003693085387},  {5, 0.72511270865222266},
      {6, 0.83260503274461317},  {7, 0.85201062587948484},
      {8, 0.87353870576348303},  {9, 0.89718927239660784},
      {10, 0.89718927239660784}, {11, 0.90931776810590259},
      {12, 0.93660688345181586}, {13, 0.96389599879772914},
      {14, 0.99118511414364241}, {15, 1.0184742294895557},
      {16, 1.0457633448354688},  {17, 1.073052460181382},
      {18, 1.0739620973595791},  {19, 2.6896195209610054},
      {20, 2.6897114448651975},
  };
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].first, want[k].first) << "delivery " << k;
    EXPECT_NEAR(got[k].second, want[k].second, 1e-12) << "delivery " << k;
  }
}

TEST(Link, LongQueueWithReentrantSendsStaysInOrder) {
  // Deliveries that send again on the same link while hundreds of
  // transfers are queued: the FIFO compacts its consumed prefix mid-run.
  sim::Simulation sim;
  net::Link link(sim, 10e6, millis(5));
  std::vector<int> order;
  int next = 0;
  std::function<void()> send_one = [&] {
    const int i = next++;
    link.send(Bytes(100 + i % 50, 0), [&, i](TimePoint, util::BufferSlice) {
      order.push_back(i);
      if (i < 100) send_one();
    });
  };
  for (int k = 0; k < 200; ++k) send_one();
  sim.schedule_at(time_at(0.001), [&] { link.set_rate(5e6); });
  sim.run_all();
  ASSERT_EQ(order.size(), 300u);
  for (int k = 0; k < 300; ++k) EXPECT_EQ(order[k], k);
}

TEST(Link, RepaceLeavesFutureSendsAlone) {
  // set_rate with nothing mid-serialization must behave exactly like the
  // pre-repace kernel: only subsequent sends see the new rate.
  sim::Simulation sim;
  net::Link link(sim, 1e6, Duration{0});
  std::vector<double> arrivals;
  link.send(Bytes(12500, 0), [&](TimePoint t, util::BufferSlice) {
    arrivals.push_back(to_s(t));
  });
  sim.schedule_at(time_at(1.0), [&] {
    link.set_rate(2e6);
    link.send(Bytes(25000, 0), [&](TimePoint t, util::BufferSlice) {
      arrivals.push_back(to_s(t));
    });
  });
  sim.run_all();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 0.1, 1e-9);
  EXPECT_NEAR(arrivals[1], 1.1, 1e-9);  // 200 kbit at 2 Mbps
}

TEST(Capture, RecordsPacketsAndFindsByteTimes) {
  net::Capture cap;
  cap.record(time_at(1.0), Bytes(100, 1));
  cap.record(time_at(2.0), Bytes(50, 2));
  cap.record(time_at(3.0), Bytes(10, 3));
  EXPECT_EQ(cap.total_bytes(), 160u);
  EXPECT_EQ(cap.packets().size(), 3u);
  EXPECT_DOUBLE_EQ(to_s(cap.time_of_byte(0)), 1.0);
  EXPECT_DOUBLE_EQ(to_s(cap.time_of_byte(99)), 1.0);
  EXPECT_DOUBLE_EQ(to_s(cap.time_of_byte(100)), 2.0);
  EXPECT_DOUBLE_EQ(to_s(cap.time_of_byte(149)), 2.0);
  EXPECT_DOUBLE_EQ(to_s(cap.time_of_byte(155)), 3.0);
}

TEST(Capture, PayloadIsConcatenation) {
  net::Capture cap;
  cap.record(time_at(0), Bytes{1, 2});
  cap.record(time_at(1), Bytes{3});
  EXPECT_EQ(cap.payload(), (Bytes{1, 2, 3}));
  cap.clear();
  EXPECT_TRUE(cap.empty());
  EXPECT_EQ(cap.total_bytes(), 0u);
}

TEST(Http, RequestRoundtrip) {
  http::Request req;
  req.method = "POST";
  req.path = "/api/v2/mapGeoBroadcastFeed";
  req.headers["Host"] = "api.periscope.tv";
  req.body = R"({"cookie":"abc"})";
  auto parsed = http::Request::parse(req.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().method, "POST");
  EXPECT_EQ(parsed.value().path, "/api/v2/mapGeoBroadcastFeed");
  EXPECT_EQ(parsed.value().headers.at("Host"), "api.periscope.tv");
  EXPECT_EQ(parsed.value().body, req.body);
}

TEST(Http, ResponseRoundtripWithBinaryBody) {
  http::Response resp = http::Response::ok(Bytes{0x00, 0xFF, 0x47, 0x0D},
                                           "video/mp2t");
  auto parsed = http::Response::parse(resp.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().status, 200);
  EXPECT_EQ(parsed.value().body, (Bytes{0x00, 0xFF, 0x47, 0x0D}));
  EXPECT_EQ(parsed.value().headers.at("Content-Type"), "video/mp2t");
}

TEST(Http, TooManyRequests) {
  const http::Response r = http::Response::too_many_requests();
  EXPECT_EQ(r.status, 429);
  auto parsed = http::Response::parse(r.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().status, 429);
  EXPECT_EQ(parsed.value().reason, "Too Many Requests");
}

TEST(Http, MalformedInputsRejected) {
  EXPECT_FALSE(http::Request::parse("GET /\r\n").ok());  // no terminator
  EXPECT_FALSE(http::Request::parse("\r\n\r\n").ok());
  const Bytes garbage = to_bytes("not http\r\n\r\n");
  EXPECT_FALSE(http::Response::parse(garbage).ok());
}

TEST(Http, JsonHelper) {
  const http::Response r = http::Response::json("{\"a\":1}");
  EXPECT_EQ(r.headers.at("Content-Type"), "application/json");
  EXPECT_EQ(to_string(r.body), "{\"a\":1}");
}

}  // namespace
}  // namespace psc
