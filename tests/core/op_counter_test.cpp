#include "core/op_counter.hpp"

#include <stdexcept>

#include <gtest/gtest.h>

#include "core/stochastic.hpp"

namespace hdface::core {
namespace {

TEST(OpCounter, AddGetResetMerge) {
  OpCounter c;
  c.add(OpKind::kWordLogic, 5);
  c.add(OpKind::kPopcount, 3);
  c.add(OpKind::kWordLogic, 2);
  EXPECT_EQ(c.get(OpKind::kWordLogic), 7u);
  EXPECT_EQ(c.total(), 10u);
  OpCounter d;
  d.add(OpKind::kPopcount, 1);
  c.merge(d);
  EXPECT_EQ(c.get(OpKind::kPopcount), 4u);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST(StochasticFork, RequiresWarmedPool) {
  StochasticConfig cfg;
  cfg.dim = 512;
  StochasticContext ctx(cfg);
  EXPECT_FALSE(ctx.pool_warmed());
  EXPECT_THROW(ctx.fork(1), std::logic_error);
  ctx.warm_pool();
  EXPECT_TRUE(ctx.pool_warmed());
  EXPECT_NO_THROW(ctx.fork(1));
}

TEST(StochasticFork, PoollessContextForksWithoutWarming) {
  StochasticConfig cfg;
  cfg.dim = 512;
  cfg.mask_pool = 0;
  StochasticContext ctx(cfg);
  EXPECT_NO_THROW(ctx.fork(7));
}

TEST(StochasticFork, ReseedMakesForkDeterministic) {
  StochasticConfig cfg;
  cfg.dim = 1024;
  StochasticContext parent(cfg);
  parent.warm_pool();
  StochasticContext a = parent.fork(42);
  StochasticContext b = parent.fork(99);
  b.reseed(42);
  const Hypervector va = a.construct(0.5);
  const Hypervector vb = b.construct(0.5);
  EXPECT_EQ(va, vb);
  // Same seed again on the same fork restarts the chain.
  a.reseed(42);
  EXPECT_EQ(a.construct(0.5), va);
}

}  // namespace
}  // namespace hdface::core
