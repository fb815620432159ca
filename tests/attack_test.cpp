// Tests for the side-channel attacker.

#include <gtest/gtest.h>

#include <cmath>

#include "src/attack/side_channel_attacker.h"
#include "src/base/rng.h"

namespace psbox {
namespace {

std::vector<double> Signature(int kind, size_t n, Rng* noise = nullptr,
                              double noise_level = 0.0) {
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i);
    double v = 0.0;
    switch (kind) {
      case 0:
        v = std::sin(0.1 * x);
        break;
      case 1:
        v = (static_cast<int>(x) % 20 < 10) ? 1.0 : 0.0;  // square wave
        break;
      case 2:
        v = x / static_cast<double>(n);  // ramp
        break;
      default:
        v = std::sin(0.3 * x) * 0.5 + 0.3;
        break;
    }
    if (noise != nullptr) {
      v += noise->Gaussian(0.0, noise_level);
    }
    out[i] = v;
  }
  return out;
}

// The label of signature |kind|, built by appending: GCC 12 misreads the
// insert-at-front of `Label(k)` as an overlapping copy
// (-Wrestrict).
std::string Label(int kind) {
  std::string label = "k";
  label += std::to_string(kind);
  return label;
}

TEST(AttackerTest, ClassifiesCleanTraces) {
  SideChannelAttacker attacker;
  for (int k = 0; k < 4; ++k) {
    attacker.Train(Label(k), Signature(k, 150));
  }
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(attacker.Infer(Signature(k, 150)), Label(k));
  }
}

TEST(AttackerTest, RobustToModerateNoise) {
  SideChannelAttacker attacker;
  for (int k = 0; k < 4; ++k) {
    attacker.Train(Label(k), Signature(k, 150));
  }
  Rng rng(5);
  std::vector<std::pair<std::string, std::vector<double>>> probes;
  for (int k = 0; k < 4; ++k) {
    for (int rep = 0; rep < 5; ++rep) {
      probes.emplace_back(Label(k), Signature(k, 150, &rng, 0.15));
    }
  }
  EXPECT_GT(attacker.SuccessRate(probes), 0.8);
}

TEST(AttackerTest, FlatTracesAreUninformative) {
  // A psbox-confined attacker sees idle power + its own (constant-ish) load:
  // inference over flat noise is near random.
  SideChannelAttacker attacker;
  for (int k = 0; k < 4; ++k) {
    attacker.Train(Label(k), Signature(k, 150));
  }
  Rng rng(17);
  int hits = 0;
  constexpr int kProbes = 40;
  for (int i = 0; i < kProbes; ++i) {
    std::vector<double> flat(150);
    for (double& v : flat) {
      v = 0.12 + rng.Gaussian(0.0, 0.004);
    }
    const std::string truth = Label(i % 4);
    if (attacker.Infer(flat) == truth) {
      ++hits;
    }
  }
  EXPECT_LT(static_cast<double>(hits) / kProbes, 0.5);
}

TEST(AttackerTest, SuccessRateEmptyProbesIsZero) {
  SideChannelAttacker attacker;
  attacker.Train("a", Signature(0, 50));
  EXPECT_EQ(attacker.SuccessRate({}), 0.0);
}

TEST(AttackerTest, ReferenceCount) {
  SideChannelAttacker attacker;
  attacker.Train("a", Signature(0, 50));
  attacker.Train("b", Signature(1, 50));
  EXPECT_EQ(attacker.reference_count(), 2u);
}

}  // namespace
}  // namespace psbox
