// Synthetic workload address generators.
//
// Everything is deterministic given the Rng: uniform-random, sequential and
// zipfian (YCSB-style) address streams, plus a read/write mix helper. These
// drive the aging and performance benches.
#ifndef SALAMANDER_WORKLOAD_GENERATORS_H_
#define SALAMANDER_WORKLOAD_GENERATORS_H_

#include <cstdint>
#include <memory>

#include "common/rng.h"

namespace salamander {

// Produces addresses in [0, space) — oPage offsets, LBAs, chunk ids, etc.
class AddressGenerator {
 public:
  virtual ~AddressGenerator() = default;
  virtual uint64_t Next(Rng& rng) = 0;
  virtual uint64_t space() const = 0;
};

class UniformGenerator final : public AddressGenerator {
 public:
  explicit UniformGenerator(uint64_t space) : space_(space) {}
  uint64_t Next(Rng& rng) override { return rng.UniformU64(space_); }
  uint64_t space() const override { return space_; }

 private:
  uint64_t space_;
};

class SequentialGenerator final : public AddressGenerator {
 public:
  explicit SequentialGenerator(uint64_t space, uint64_t start = 0)
      : space_(space), next_(start % (space == 0 ? 1 : space)) {}
  uint64_t Next(Rng&) override {
    const uint64_t current = next_;
    next_ = (next_ + 1) % space_;
    return current;
  }
  uint64_t space() const override { return space_; }

 private:
  uint64_t space_;
  uint64_t next_;
};

// Zipfian distribution over [0, space) using the Gray et al. rejection-free
// inversion (the YCSB implementation): item 0 is the hottest.
class ZipfianGenerator final : public AddressGenerator {
 public:
  explicit ZipfianGenerator(uint64_t space, double theta = 0.99);
  uint64_t Next(Rng& rng) override;
  uint64_t space() const override { return space_; }
  double theta() const { return theta_; }

  // Zeta(n, theta) = sum_{i=1..n} i^-theta, memoized per (n, theta) behind a
  // mutex: the O(n) partial sum runs once per distinct geometry, so
  // constructing many same-shaped generators (one per tenant, one per
  // AgingDriver) is O(1) after the first. The cached value
  // is a pure function of its key, so sharing it across threads cannot
  // perturb determinism.
  static double CachedZeta(uint64_t n, double theta);
  // Number of distinct (n, theta) keys currently cached (test hook).
  static size_t ZetaCacheSize();

 private:
  uint64_t space_;
  double theta_;
  double alpha_;
  double zeta_n_;
  double eta_;
  double zeta_two_;
};

// A read/write decision stream with a fixed read fraction.
class OpMix {
 public:
  explicit OpMix(double read_fraction) : read_fraction_(read_fraction) {}
  bool NextIsRead(Rng& rng) const { return rng.Bernoulli(read_fraction_); }
  double read_fraction() const { return read_fraction_; }

 private:
  double read_fraction_;
};

}  // namespace salamander

#endif  // SALAMANDER_WORKLOAD_GENERATORS_H_
