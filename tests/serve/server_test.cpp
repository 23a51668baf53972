#include "serve/server.hpp"

#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/background_generator.hpp"
#include "dataset/face_generator.hpp"
#include "hog/hd_hog.hpp"
#include "image/transform.hpp"

namespace hdface::serve {
namespace {

constexpr std::size_t kWindow = 16;

api::Detector trained_detector() {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = kWindow;
  data_cfg.num_samples = 40;
  api::Detector det = api::DetectorBuilder()
                          .window(kWindow)
                          .dim(1024)
                          .hd_hog_mode(hog::HdHogMode::kDecodeShortcut)
                          .epochs(2)
                          .build();
  det.fit(dataset::make_face_dataset(data_cfg));
  return det;
}

image::Image test_scene(std::size_t side, std::uint64_t seed) {
  image::Image scene(side, side, 0.5f);
  core::Rng rng(seed);
  dataset::render_background(scene, dataset::BackgroundKind::kMixed, rng);
  image::paste(scene, dataset::render_face_window(kWindow, seed), 0, 0);
  return scene;
}

api::Request valid_request(std::uint64_t id, std::uint32_t tenant = 0) {
  api::Request request;
  request.id = id;
  request.tenant = tenant;
  request.scene = test_scene(kWindow, 100 + id);
  request.options.threads = 1;
  request.options.stride = kWindow;
  return request;
}

ServerConfig manual_config(std::size_t queue_depth) {
  ServerConfig config;
  config.queue_depth = queue_depth;
  config.start_workers = false;
  return config;
}

// The admission-determinism satellite: with no concurrent consumer (manual
// mode), a fixed submission schedule against a fixed queue depth yields
// EXACT rejection counts — run twice, the counters agree.
TEST(DetectionServer, QueueFullRejectionsAreDeterministic) {
  const api::Detector det = trained_detector();
  for (int run = 0; run < 2; ++run) {
    DetectionServer server(det, manual_config(4));
    std::vector<DetectionServer::Submission> submissions;
    for (std::uint64_t i = 0; i < 10; ++i) {
      submissions.push_back(server.submit(valid_request(i)));
    }
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < submissions.size(); ++i) {
      if (i < 4) {
        ASSERT_TRUE(submissions[i].admitted()) << "run " << run << " i " << i;
        admitted += 1;
      } else {
        ASSERT_FALSE(submissions[i].admitted()) << "run " << run << " i " << i;
        EXPECT_EQ(submissions[i].rejected->code, api::ErrorCode::kQueueFull);
      }
    }
    const ServerStats before = server.stats();
    EXPECT_EQ(before.counters.submitted, 10u);
    EXPECT_EQ(before.counters.admitted, 4u);
    EXPECT_EQ(before.counters.rejected_queue_full, 6u);
    EXPECT_EQ(before.in_flight, 4u);
    EXPECT_TRUE(before.conserved());

    // Drain on this thread; every admitted future resolves ok.
    std::size_t steps = 0;
    while (server.step()) steps += 1;
    EXPECT_EQ(steps, admitted);
    for (std::size_t i = 0; i < 4; ++i) {
      auto outcome = submissions[i].response.get();
      ASSERT_TRUE(outcome.ok()) << outcome.error().message;
      EXPECT_EQ(outcome.value().id, i);
    }
    const ServerStats after = server.stats();
    EXPECT_EQ(after.counters.completed, 4u);
    EXPECT_EQ(after.counters.failed, 0u);
    EXPECT_EQ(after.in_flight, 0u);
    EXPECT_TRUE(after.conserved());
  }
}

// Admission with a live worker: one worker drains a two-slot queue while the
// test submits back to back, so which submissions find the queue full
// depends on timing. Each one is still either admitted or rejected with
// kQueueFull, and the counters account for every one of them (the tsan leg
// runs this test).
TEST(DetectionServer, QueueFullRejectionsWithLiveWorkerConserve) {
  const api::Detector det = trained_detector();
  ServerConfig config;
  config.queue_depth = 2;
  config.workers = 1;
  DetectionServer server(det, config);

  constexpr std::uint64_t kSubmissions = 16;
  std::vector<std::future<api::Outcome<api::Response>>> admitted;
  std::uint64_t rejected = 0;
  for (std::uint64_t i = 0; i < kSubmissions; ++i) {
    api::Request request = valid_request(i);
    request.scene = test_scene(3 * kWindow, 100 + i);  // a scan, not a window
    request.options.stride = kWindow / 2;
    auto submission = server.submit(request);
    if (submission.admitted()) {
      admitted.push_back(std::move(submission.response));
    } else {
      EXPECT_EQ(submission.rejected->code, api::ErrorCode::kQueueFull)
          << "submission " << i;
      rejected += 1;
    }
  }
  ASSERT_FALSE(admitted.empty());  // the first submission finds the queue empty
  const ServerStats live = server.stats();
  EXPECT_EQ(live.counters.submitted, kSubmissions);
  EXPECT_EQ(live.counters.admitted, admitted.size());
  EXPECT_EQ(live.counters.rejected_queue_full, rejected);
  EXPECT_EQ(live.counters.admitted + live.counters.rejected_queue_full,
            live.counters.submitted);
  EXPECT_TRUE(live.conserved());

  server.shutdown();
  for (auto& response : admitted) EXPECT_TRUE(response.get().ok());
  const ServerStats after = server.stats();
  EXPECT_EQ(after.counters.completed + after.counters.failed,
            after.counters.admitted);
  EXPECT_EQ(after.in_flight, 0u);
  EXPECT_TRUE(after.conserved());
}

TEST(DetectionServer, BackpressureSignalReportsOccupancy) {
  const api::Detector det = trained_detector();
  DetectionServer server(det, manual_config(4));
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto submission = server.submit(valid_request(i));
    ASSERT_TRUE(submission.admitted());
    EXPECT_EQ(submission.queue_depth, i + 1);  // occupancy after admission
    EXPECT_EQ(submission.queue_capacity, 4u);
  }
  const auto rejected = server.submit(valid_request(99));
  EXPECT_FALSE(rejected.admitted());
  EXPECT_EQ(rejected.queue_depth, 4u);  // the client sees why
}

TEST(DetectionServer, PerTenantCapRejectsAndReleases) {
  const api::Detector det = trained_detector();
  ServerConfig config = manual_config(8);
  config.per_tenant_inflight = 2;
  DetectionServer server(det, config);

  ASSERT_TRUE(server.submit(valid_request(0, /*tenant=*/7)).admitted());
  ASSERT_TRUE(server.submit(valid_request(1, /*tenant=*/7)).admitted());
  const auto third = server.submit(valid_request(2, /*tenant=*/7));
  ASSERT_FALSE(third.admitted());
  EXPECT_EQ(third.rejected->code, api::ErrorCode::kTenantOverLimit);
  // Another tenant is unaffected.
  ASSERT_TRUE(server.submit(valid_request(3, /*tenant=*/8)).admitted());

  // Completion releases the slot.
  while (server.step()) {
  }
  EXPECT_TRUE(server.submit(valid_request(4, /*tenant=*/7)).admitted());
  const auto stats = server.stats();
  EXPECT_EQ(stats.counters.rejected_tenant, 1u);
  EXPECT_TRUE(stats.conserved());
}

TEST(DetectionServer, TypedRejectionOfInvalidRequests) {
  const api::Detector det = trained_detector();
  DetectionServer server(det, manual_config(4));

  api::Request bad_stride = valid_request(0);
  bad_stride.options.stride = 0;
  auto s = server.submit(std::move(bad_stride));
  ASSERT_FALSE(s.admitted());
  EXPECT_EQ(s.rejected->code, api::ErrorCode::kInvalidOptions);

  api::Request no_scales = valid_request(1);
  no_scales.options.scales = {};
  s = server.submit(std::move(no_scales));
  ASSERT_FALSE(s.admitted());
  EXPECT_EQ(s.rejected->code, api::ErrorCode::kInvalidOptions);

  api::Request tiny_scene = valid_request(2);
  tiny_scene.scene = image::Image(kWindow / 2, kWindow / 2, 0.5f);
  s = server.submit(std::move(tiny_scene));
  ASSERT_FALSE(s.admitted());
  EXPECT_EQ(s.rejected->code, api::ErrorCode::kInvalidOptions);

  // positive_class indexes the 2-class score vector: outside [0, 2) it is
  // refused at admission, before a worker could read past the scores.
  for (const int positive_class : {5, -1}) {
    api::Request bad_class = valid_request(3);
    bad_class.options.positive_class = positive_class;
    s = server.submit(std::move(bad_class));
    ASSERT_FALSE(s.admitted()) << positive_class;
    EXPECT_EQ(s.rejected->code, api::ErrorCode::kInvalidOptions);
  }

  const auto stats = server.stats();
  EXPECT_EQ(stats.counters.rejected_invalid, 5u);
  EXPECT_EQ(stats.counters.admitted, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);  // invalid requests never queue
  EXPECT_TRUE(stats.conserved());
}

TEST(DetectionServer, ShutdownDrainsAdmittedAndRejectsNew) {
  const api::Detector det = trained_detector();
  DetectionServer server(det, manual_config(4));
  auto first = server.submit(valid_request(0));
  auto second = server.submit(valid_request(1));
  ASSERT_TRUE(first.admitted());
  ASSERT_TRUE(second.admitted());

  server.shutdown();
  // Admitted work was drained, not dropped.
  EXPECT_TRUE(first.response.get().ok());
  EXPECT_TRUE(second.response.get().ok());

  const auto rejected = server.submit(valid_request(2));
  ASSERT_FALSE(rejected.admitted());
  EXPECT_EQ(rejected.rejected->code, api::ErrorCode::kShutdown);

  server.shutdown();  // idempotent
  const auto stats = server.stats();
  EXPECT_EQ(stats.counters.completed, 2u);
  EXPECT_EQ(stats.counters.rejected_shutdown, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_TRUE(stats.conserved());
}

TEST(DetectionServer, HistogramCountsMatchResolvedRequests) {
  const api::Detector det = trained_detector();
  DetectionServer server(det, manual_config(8));
  std::vector<DetectionServer::Submission> submissions;
  for (std::uint64_t i = 0; i < 5; ++i) {
    submissions.push_back(server.submit(valid_request(i)));
    ASSERT_TRUE(submissions.back().admitted());
  }
  while (server.step()) {
  }
  const auto stats = server.stats();
  const auto resolved = stats.counters.completed + stats.counters.failed;
  EXPECT_EQ(stats.queue_wait.count(), resolved);
  EXPECT_EQ(stats.execute.count(), resolved);
  EXPECT_EQ(stats.e2e.count(), resolved);
  // e2e >= execute for every request, so the merged maxima order too.
  EXPECT_GE(stats.e2e.max(), stats.execute.max());
  // Served timing is reported on the response.
  const auto outcome = submissions.front().response.get();
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome.value().timing.total, 0u);
  EXPECT_GE(outcome.value().timing.total, outcome.value().timing.execute);
}

// A request can pass admission (Detector::check) and still fail inside the
// scan: here a calibrated cascade table whose dim is not the model's, which
// only the Cascade constructor catches. Its future resolves with a typed
// error, the worker survives to serve the next request, and accounting stays
// conserved.
TEST(DetectionServer, RequestFailingAfterAdmissionKeepsItsWorker) {
  const api::Detector det = trained_detector();
  ServerConfig config;
  config.queue_depth = 4;
  config.workers = 1;
  DetectionServer server(det, config);

  api::Request bad = valid_request(0);
  bad.options.encode_mode = pipeline::EncodeMode::kCellPlane;
  bad.options.cascade = pipeline::CascadeConfig{};
  bad.options.cascade->mode = pipeline::CascadeMode::kCalibrated;
  pipeline::CascadeTable& table = bad.options.cascade->table;
  table.dim = 2048;  // trained_detector() builds D = 1024
  table.classes = 2;
  table.positive_class = bad.options.positive_class;
  table.stages = {{1, 0.0}};
  ASSERT_FALSE(det.check(bad).has_value());
  auto failing = server.submit(std::move(bad));
  ASSERT_TRUE(failing.admitted());
  const auto failed = failing.response.get();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, api::ErrorCode::kInvalidOptions);
  EXPECT_EQ(server.stats().counters.failed, 1u);

  auto next = server.submit(valid_request(1));
  ASSERT_TRUE(next.admitted());
  EXPECT_TRUE(next.response.get().ok());
  const auto stats = server.stats();
  EXPECT_EQ(stats.counters.completed, 1u);
  EXPECT_EQ(stats.counters.failed, 1u);
  EXPECT_TRUE(stats.conserved());
}

// Served results must be bit-identical to direct Detector::detect calls —
// at any worker count, under concurrent submission, for clean and faulted
// requests alike. Both plan kinds race clean scans with no model lock: a
// stored-memory plan scans a private faulted copy of the model, and a
// query-only plan scans the shared model; neither may write anything a
// clean scan reads (the tsan leg runs this test).
TEST(DetectionServer, ConcurrentServingIsBitIdenticalToDirectCalls) {
  const api::Detector det = trained_detector();

  // A mixed stream: single-window, wide-scene multiscale, stored-memory
  // faulted, query-only faulted.
  std::vector<api::Request> requests;
  for (std::uint64_t i = 0; i < 16; ++i) {
    api::Request request;
    request.id = i;
    request.options.threads = 1;
    request.options.stride = kWindow / 2;
    switch (i % 4) {
      case 0:
        request.scene = test_scene(kWindow, 300 + i);
        request.options.stride = kWindow;
        break;
      case 1:
        request.scene = test_scene(3 * kWindow, 300 + i);
        request.options.scales = {1.0, 0.5};
        request.options.nms = true;
        break;
      default: {
        request.scene = test_scene(3 * kWindow, 300 + i);
        noise::FaultPlan plan;
        plan.model.kind = noise::FaultKind::kTransientFlip;
        plan.model.rate = 1e-3;
        plan.seed = 0xFA + i;
        if (i % 4 == 3) {  // query-only: scans the shared model
          plan.item_memory = false;
          plan.prototypes = false;
        }
        request.options.fault_plan = plan;
        break;
      }
    }
    requests.push_back(std::move(request));
  }

  // Direct (one-shot) results first.
  api::Detector direct = det;
  std::vector<std::vector<pipeline::Detection>> expected;
  for (const auto& request : requests) {
    auto outcome = direct.detect(request);
    ASSERT_TRUE(outcome.ok()) << outcome.error().message;
    expected.push_back(std::move(outcome).take().detections);
  }

  ServerConfig config;
  config.queue_depth = 16;
  config.workers = 3;
  DetectionServer server(det, config);
  std::vector<std::future<api::Outcome<api::Response>>> futures(
      requests.size());
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = c; i < requests.size(); i += 3) {
        for (;;) {
          auto submission = server.submit(requests[i]);
          if (submission.admitted()) {
            futures[i] = std::move(submission.response);
            break;
          }
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto outcome = futures[i].get();
    ASSERT_TRUE(outcome.ok()) << "request " << i << ": "
                              << outcome.error().message;
    const auto& served = outcome.value().detections;
    ASSERT_EQ(served.size(), expected[i].size()) << "request " << i;
    for (std::size_t d = 0; d < served.size(); ++d) {
      EXPECT_EQ(served[d].x, expected[i][d].x) << "request " << i;
      EXPECT_EQ(served[d].y, expected[i][d].y) << "request " << i;
      EXPECT_EQ(served[d].size, expected[i][d].size) << "request " << i;
      EXPECT_EQ(served[d].score, expected[i][d].score) << "request " << i;
    }
  }
  server.shutdown();
  EXPECT_TRUE(server.stats().conserved());
}

}  // namespace
}  // namespace hdface::serve
