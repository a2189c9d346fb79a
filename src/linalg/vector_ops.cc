#include "linalg/vector_ops.h"

#include <algorithm>
#include <cmath>

#include "core/parallel.h"
#include "linalg/simd/simd.h"
#include "util/check.h"

namespace impreg {

namespace {

/// Elements per parallel chunk for the dense kernels. Reductions fold
/// per-chunk partials in chunk order, so every result below is
/// bit-identical for any thread count (chunk boundaries depend only on
/// the vector length and this grain). Vectors at or below the grain run
/// on the pre-existing single-accumulator serial path.
constexpr std::int64_t kVectorGrain = 1 << 14;

std::int64_t Size(const Vector& x) {
  return static_cast<std::int64_t>(x.size());
}

double SumCombine(double a, double b) { return a + b; }

}  // namespace

double Dot(const Vector& x, const Vector& y) {
  IMPREG_DCHECK(x.size() == y.size());
  // Per-chunk sums use the canonical striped tree (see simd.h), which is
  // bit-identical under scalar and AVX2 dispatch; chunk partials fold in
  // chunk order as before, so the thread-count invariance is unchanged.
  const simd::SimdLevel level = simd::ActiveSimdLevel();
  return ParallelReduce(
      0, Size(x), kVectorGrain, 0.0,
      [&](std::int64_t begin, std::int64_t end) {
        return simd::DotRange(level, x.data() + begin, y.data() + begin,
                              end - begin);
      },
      SumCombine);
}

double Norm2(const Vector& x) { return std::sqrt(Dot(x, x)); }

double Norm1(const Vector& x) {
  return ParallelReduce(
      0, Size(x), kVectorGrain, 0.0,
      [&](std::int64_t begin, std::int64_t end) {
        double sum = 0.0;
        for (std::int64_t i = begin; i < end; ++i) sum += std::abs(x[i]);
        return sum;
      },
      SumCombine);
}

double NormInf(const Vector& x) {
  return ParallelReduce(
      0, Size(x), kVectorGrain, 0.0,
      [&](std::int64_t begin, std::int64_t end) {
        double best = 0.0;
        for (std::int64_t i = begin; i < end; ++i) {
          best = std::max(best, std::abs(x[i]));
        }
        return best;
      },
      [](double a, double b) { return std::max(a, b); });
}

void Axpy(double a, const Vector& x, Vector& y) {
  IMPREG_DCHECK(x.size() == y.size());
  const simd::SimdLevel level = simd::ActiveSimdLevel();
  ParallelFor(0, Size(x), kVectorGrain,
              [&](std::int64_t begin, std::int64_t end) {
                simd::AxpyRange(level, a, x.data() + begin, y.data() + begin,
                                end - begin);
              });
}

void Scale(double a, Vector& x) {
  ParallelFor(0, Size(x), kVectorGrain,
              [&](std::int64_t begin, std::int64_t end) {
                for (std::int64_t i = begin; i < end; ++i) x[i] *= a;
              });
}

double Normalize(Vector& x) {
  const double norm = Norm2(x);
  if (norm > 0.0) Scale(1.0 / norm, x);
  return norm;
}

void ProjectOut(const Vector& direction, Vector& x) {
  IMPREG_DCHECK(direction.size() == x.size());
  const double dd = Dot(direction, direction);
  if (dd <= 0.0) return;
  const double coeff = Dot(direction, x) / dd;
  ParallelFor(0, Size(x), kVectorGrain,
              [&](std::int64_t begin, std::int64_t end) {
                for (std::int64_t i = begin; i < end; ++i) {
                  x[i] -= coeff * direction[i];
                }
              });
}

double Sum(const Vector& x) {
  return ParallelReduce(
      0, Size(x), kVectorGrain, 0.0,
      [&](std::int64_t begin, std::int64_t end) {
        double sum = 0.0;
        for (std::int64_t i = begin; i < end; ++i) sum += x[i];
        return sum;
      },
      SumCombine);
}

double DistanceL2(const Vector& x, const Vector& y) {
  IMPREG_DCHECK(x.size() == y.size());
  const double sum = ParallelReduce(
      0, Size(x), kVectorGrain, 0.0,
      [&](std::int64_t begin, std::int64_t end) {
        double s = 0.0;
        for (std::int64_t i = begin; i < end; ++i) {
          s += (x[i] - y[i]) * (x[i] - y[i]);
        }
        return s;
      },
      SumCombine);
  return std::sqrt(sum);
}

double DistanceL1(const Vector& x, const Vector& y) {
  IMPREG_DCHECK(x.size() == y.size());
  return ParallelReduce(
      0, Size(x), kVectorGrain, 0.0,
      [&](std::int64_t begin, std::int64_t end) {
        double sum = 0.0;
        for (std::int64_t i = begin; i < end; ++i) sum += std::abs(x[i] - y[i]);
        return sum;
      },
      SumCombine);
}

double DistanceUpToSign(const Vector& x, const Vector& y) {
  IMPREG_DCHECK(x.size() == y.size());
  struct PlusMinus {
    double plus = 0.0;
    double minus = 0.0;
  };
  const PlusMinus total = ParallelReduce(
      0, Size(x), kVectorGrain, PlusMinus{},
      [&](std::int64_t begin, std::int64_t end) {
        PlusMinus partial;
        for (std::int64_t i = begin; i < end; ++i) {
          partial.plus += (x[i] - y[i]) * (x[i] - y[i]);
          partial.minus += (x[i] + y[i]) * (x[i] + y[i]);
        }
        return partial;
      },
      [](PlusMinus a, PlusMinus b) {
        return PlusMinus{a.plus + b.plus, a.minus + b.minus};
      });
  return std::sqrt(std::min(total.plus, total.minus));
}

bool AllFinite(const Vector& x) {
  return ParallelReduce(
      0, Size(x), kVectorGrain, true,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t i = begin; i < end; ++i) {
          if (!std::isfinite(x[i])) return false;
        }
        return true;
      },
      [](bool a, bool b) { return a && b; });
}

double WeightedDot(const Vector& weights, const Vector& x, const Vector& y) {
  IMPREG_DCHECK(weights.size() == x.size() && x.size() == y.size());
  return ParallelReduce(
      0, Size(x), kVectorGrain, 0.0,
      [&](std::int64_t begin, std::int64_t end) {
        double sum = 0.0;
        for (std::int64_t i = begin; i < end; ++i) {
          sum += weights[i] * x[i] * y[i];
        }
        return sum;
      },
      SumCombine);
}

}  // namespace impreg
