#include "api/types.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace hdface::api {
namespace {

// --- validate() ------------------------------------------------------------

TEST(Validate, DefaultOptionsAreValid) {
  EXPECT_EQ(validate(DetectOptions{}), std::nullopt);
}

TEST(Validate, RejectsZeroStride) {
  DetectOptions opts;
  opts.stride = 0;
  const auto err = validate(opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::kInvalidOptions);
  EXPECT_NE(err->message.find("stride"), std::string::npos);
}

TEST(Validate, RejectsEmptyScales) {
  DetectOptions opts;
  opts.scales = {};
  const auto err = validate(opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::kInvalidOptions);
}

TEST(Validate, RejectsScalesOutsideUnitInterval) {
  for (const double bad : {0.0, -0.5, 1.5}) {
    DetectOptions opts;
    opts.scales = {1.0, bad};
    const auto err = validate(opts);
    ASSERT_TRUE(err.has_value()) << "scale " << bad;
    EXPECT_EQ(err->code, ErrorCode::kInvalidOptions) << "scale " << bad;
  }
  DetectOptions nan_scale;
  nan_scale.scales = {std::nan("")};
  EXPECT_TRUE(validate(nan_scale).has_value());
}

TEST(Validate, RejectsNonFiniteThresholds) {
  DetectOptions bad_iou;
  bad_iou.nms_iou = std::nan("");
  EXPECT_TRUE(validate(bad_iou).has_value());
  bad_iou.nms_iou = -0.1;
  EXPECT_TRUE(validate(bad_iou).has_value());
  bad_iou.nms_iou = 1.5;
  EXPECT_TRUE(validate(bad_iou).has_value());

  DetectOptions bad_score;
  bad_score.score_threshold = std::nan("");
  EXPECT_TRUE(validate(bad_score).has_value());
}

TEST(Validate, RejectsFaultRateOutsideUnitInterval) {
  // Checked at admission: a NaN rate would otherwise pass the engine's range
  // test and inject nothing while the call reports success.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), inf, -inf, -0.1, 1.5}) {
    DetectOptions opts;
    opts.fault_plan = noise::FaultPlan{};
    opts.fault_plan->model.rate = bad;
    const auto err = validate(opts);
    ASSERT_TRUE(err.has_value()) << "rate " << bad;
    EXPECT_EQ(err->code, ErrorCode::kInvalidOptions) << "rate " << bad;
    EXPECT_NE(err->message.find("rate"), std::string::npos) << "rate " << bad;
  }
  for (const double good : {0.0, 1.0}) {
    DetectOptions opts;
    opts.fault_plan = noise::FaultPlan{};
    opts.fault_plan->model.rate = good;
    EXPECT_EQ(validate(opts), std::nullopt) << "rate " << good;
  }
}

TEST(Validate, BoundaryScaleOneIsValid) {
  DetectOptions opts;
  opts.scales = {1.0, 0.25};
  opts.nms_iou = 0.0;
  EXPECT_EQ(validate(opts), std::nullopt);
  opts.nms_iou = 1.0;
  EXPECT_EQ(validate(opts), std::nullopt);
}

// --- validate(): cross-field checks ----------------------------------------

// A structurally valid calibrated-cascade option set; individual tests break
// one field at a time.
DetectOptions calibrated_cascade_options() {
  DetectOptions opts;
  opts.encode_mode = pipeline::EncodeMode::kCellPlane;
  pipeline::CascadeConfig cascade;
  cascade.mode = pipeline::CascadeMode::kCalibrated;
  cascade.table.dim = 2048;
  cascade.table.classes = 2;
  cascade.table.positive_class = 1;
  cascade.table.window = 32;
  cascade.table.stride = 4;
  cascade.table.stages = {{2, -0.10}, {8, -0.05}};
  opts.cascade = cascade;
  return opts;
}

TEST(Validate, PerWindowFaultPlanNeedsNoSink) {
  DetectOptions opts;
  opts.fault_plan = noise::FaultPlan{};
  EXPECT_EQ(validate(opts), std::nullopt);
}

TEST(Validate, CellPlaneFaultPlanNeedsNoSink) {
  // A call is not invalid for lack of an observer: the cell-plane path takes
  // a fault plan without an encode-cache stats sink, as the per-window path
  // does.
  DetectOptions opts;
  opts.fault_plan = noise::FaultPlan{};
  opts.encode_mode = pipeline::EncodeMode::kCellPlane;
  EXPECT_EQ(validate(opts), std::nullopt);
}

TEST(Validate, AcceptsCalibratedCascade) {
  EXPECT_EQ(validate(calibrated_cascade_options()), std::nullopt);
}

TEST(Validate, ExactCascadeModeSkipsCascadeChecks) {
  // Exact mode runs the pre-cascade path untouched, so the table (and encode
  // mode) are irrelevant — a default-constructed config must validate.
  DetectOptions opts;
  opts.cascade = pipeline::CascadeConfig{};
  EXPECT_EQ(validate(opts), std::nullopt);
}

TEST(Validate, RejectsCalibratedCascadeWithoutCellPlane) {
  auto opts = calibrated_cascade_options();
  opts.encode_mode = pipeline::EncodeMode::kPerWindow;
  const auto err = validate(opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::kInvalidOptions);
  EXPECT_NE(err->message.find("cell_plane"), std::string::npos);
}

TEST(Validate, RejectsCalibratedCascadeWithFaultPlan) {
  auto opts = calibrated_cascade_options();
  opts.fault_plan = noise::FaultPlan{};
  const auto err = validate(opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::kInvalidOptions);
  EXPECT_NE(err->message.find("fault_plan"), std::string::npos);
}

TEST(Validate, RejectsCascadePositiveClassMismatch) {
  auto opts = calibrated_cascade_options();
  opts.positive_class = 0;
  const auto err = validate(opts);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->code, ErrorCode::kInvalidOptions);
  EXPECT_NE(err->message.find("positive_class"), std::string::npos);
}

TEST(Validate, RejectsMalformedCascadeTables) {
  auto no_stages = calibrated_cascade_options();
  no_stages.cascade->table.stages.clear();
  EXPECT_TRUE(validate(no_stages).has_value());

  auto not_ascending = calibrated_cascade_options();
  not_ascending.cascade->table.stages = {{8, -0.10}, {8, -0.05}};
  EXPECT_TRUE(validate(not_ascending).has_value());

  auto zero_words = calibrated_cascade_options();
  zero_words.cascade->table.stages = {{0, -0.10}};
  EXPECT_TRUE(validate(zero_words).has_value());

  auto nan_threshold = calibrated_cascade_options();
  nan_threshold.cascade->table.stages = {{2, std::nan("")}};
  EXPECT_TRUE(validate(nan_threshold).has_value());

  auto degenerate = calibrated_cascade_options();
  degenerate.cascade->table.classes = 1;
  EXPECT_TRUE(validate(degenerate).has_value());
}

// --- Error -----------------------------------------------------------------

TEST(Error, FactoriesCarryTheirCode) {
  EXPECT_EQ(Error::invalid_options("x").code, ErrorCode::kInvalidOptions);
  EXPECT_EQ(Error::queue_full("x").code, ErrorCode::kQueueFull);
  EXPECT_EQ(Error::tenant_over_limit("x").code, ErrorCode::kTenantOverLimit);
  EXPECT_EQ(Error::shutdown("x").code, ErrorCode::kShutdown);
  EXPECT_EQ(Error::internal("x").code, ErrorCode::kInternal);
  EXPECT_FALSE(Error::internal("x").ok());
  EXPECT_TRUE(Error{}.ok());
}

TEST(Error, CodeNamesAreStable) {
  EXPECT_EQ(error_code_name(ErrorCode::kOk), "ok");
  EXPECT_EQ(error_code_name(ErrorCode::kInvalidOptions), "invalid_options");
  EXPECT_EQ(error_code_name(ErrorCode::kQueueFull), "queue_full");
  EXPECT_EQ(error_code_name(ErrorCode::kTenantOverLimit), "tenant_over_limit");
  EXPECT_EQ(error_code_name(ErrorCode::kShutdown), "shutdown");
  EXPECT_EQ(error_code_name(ErrorCode::kInternal), "internal");
}

TEST(Error, InvalidOptionsErrorIsInvalidArgument) {
  // Back-compat: legacy catch sites catching std::invalid_argument keep
  // working across the redesign.
  const InvalidOptionsError ex(Error::invalid_options("bad stride"));
  const std::invalid_argument& base = ex;
  EXPECT_STREQ(base.what(), "bad stride");
  EXPECT_EQ(ex.error().code, ErrorCode::kInvalidOptions);
}

// --- Outcome ---------------------------------------------------------------

TEST(Outcome, ValueStateRoundTrips) {
  Outcome<int> out(42);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(static_cast<bool>(out));
  EXPECT_EQ(out.value(), 42);
  out.value() = 43;
  EXPECT_EQ(std::move(out).take(), 43);
}

TEST(Outcome, ErrorStateThrowsOnValueAccess) {
  Outcome<int> out(Error::queue_full("full"));
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error().code, ErrorCode::kQueueFull);
  EXPECT_THROW((void)out.value(), std::logic_error);
}

TEST(Outcome, RejectsOkCodedError) {
  // An "error" outcome whose code is kOk is a caller bug, caught eagerly.
  EXPECT_THROW(Outcome<int>(Error{}), std::logic_error);
}

TEST(Outcome, ValueOutcomeReportsOkError) {
  Outcome<std::string> out(std::string("hi"));
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.error().code, ErrorCode::kOk);
}

}  // namespace
}  // namespace hdface::api
