// End-to-end deterministic edge/shape extraction helpers combining the
// pipeline stages (gray -> Sobel -> threshold -> component -> mask).
#pragma once

#include <span>

#include "runtime/workspace.hpp"
#include "tensor/tensor.hpp"
#include "vision/mask.hpp"

namespace hybridcnn::vision {

/// Explicit-scratch overload: edge-magnitude map of a [3|1, H, W] image
/// into the H*W plane `out`, drawing the luminance scratch from `ws`.
void edge_magnitude(const tensor::Tensor& chw, std::span<float> out,
                    runtime::Workspace& ws);

/// Edge-magnitude map of a [3|1, H, W] image.
tensor::Tensor edge_magnitude(const tensor::Tensor& chw);

/// Binary silhouette of the dominant shape in a [3|1, H, W] image.
/// The background colour is estimated from the image border ring; pixels
/// are scored by colour distance to it and Otsu-binarised, so a sign whose
/// fill and rim straddle the background luminance is still segmented as
/// one silhouette. Returns the largest 4-connected component, however
/// small; an image with no foreground yields an empty mask.
BinaryMask dominant_shape(const tensor::Tensor& chw);

/// Explicit-scratch overload of mask_from_feature_map over a flat H*W
/// feature-map plane. Every intermediate (magnitude, edge masks, run
/// labels) is drawn from `ws`; `out` must be an h x w view.
void mask_from_feature_map(std::span<const float> feature_map, std::size_t h,
                           std::size_t w, MaskView out,
                           runtime::Workspace& ws);

/// Binary mask from a single feature map [H, W] produced by a (reliable)
/// Sobel convolution filter: magnitude -> Otsu -> fill via largest
/// component of the *interior* (edge-bounded) region.
BinaryMask mask_from_feature_map(const tensor::Tensor& feature_map);

}  // namespace hybridcnn::vision
