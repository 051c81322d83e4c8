#ifndef FRAZ_COMPRESSORS_MGARD_MGARD_HPP
#define FRAZ_COMPRESSORS_MGARD_MGARD_HPP

/// \file mgard.hpp
/// Multigrid-style error-controlled lossy compressor in the spirit of MGARD
/// (Ainsworth, Tugluk, Whitney, Klasky — CVS 2018).
///
/// The defining MGARD features the FRaZ paper relies on are preserved:
///  - multilevel (multigrid) reduction: values are predicted by multilinear
///    interpolation from the next-coarser dyadic grid and only the residual
///    coefficients are coded, level by level;
///  - *guaranteed, computable* bounds on the reconstruction loss: residuals
///    are quantized against the decoder's own reconstruction, so the final
///    L-infinity error is bounded by the quantizer half-width;
///  - two norms: infinity norm (absolute bound) and an L2 norm mode that
///    targets mean squared error;
///  - 2D/3D support only (the paper excludes MGARD from 1D HACC/EXAALT).
///
/// Substitution note (see DESIGN.md): the original MGARD performs an L2
/// Galerkin projection between levels; this reproduction uses plain nodal
/// interpolation hierarchies, which keeps the computable-bound property and
/// the multilevel structure while simplifying the linear algebra.

#include <cstdint>

#include "ndarray/ndarray.hpp"
#include "util/buffer.hpp"

namespace fraz {

/// Error norm used to control loss.
enum class MgardNorm : std::uint8_t {
  kInfinity = 0,  ///< tolerance = absolute error bound
  kL2 = 1,        ///< tolerance = target mean squared error
};

/// Tuning knobs for the MGARD-like compressor.
struct MgardOptions {
  MgardNorm norm = MgardNorm::kInfinity;
  /// Absolute bound (kInfinity) or MSE target (kL2); must be > 0.
  double tolerance = 1e-3;
};

/// Compress \p input (2D/3D, f32/f64) into a sealed container in the
/// caller's reusable \p out (cleared first, capacity retained across calls).
/// Throws Unsupported for 1D data.
void mgard_compress_into(const ArrayView& input, const MgardOptions& options, Buffer& out);

/// Decompress a container produced by mgard_compress_into.
NdArray mgard_decompress(const std::uint8_t* data, std::size_t size);

}  // namespace fraz

#endif  // FRAZ_COMPRESSORS_MGARD_MGARD_HPP
