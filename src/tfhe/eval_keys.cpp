/**
 * @file
 * EvalKeys shape validation.
 */

#include "tfhe/eval_keys.h"

#include "common/logging.h"

namespace strix {

EvalKeys::EvalKeys(TfheParams params, BootstrappingKey bsk,
                   KeySwitchKey ksk, EvalKeySeeds seeds)
    : params_(std::move(params)), bsk_(std::move(bsk)),
      ksk_(std::move(ksk)), seeds_(seeds)
{
    panicIfNot(bsk_.n() == params_.n,
               "EvalKeys: bsk dimension does not match params");
    panicIfNot(bsk_.params().N == params_.N &&
                   bsk_.params().k == params_.k,
               "EvalKeys: bsk ring shape does not match params");
    panicIfNot(bsk_.params().bg_bits == params_.bg_bits &&
                   bsk_.params().l_bsk == params_.l_bsk,
               "EvalKeys: bsk gadget does not match params");
    panicIfNot(ksk_.inDim() == params_.extractedDim(),
               "EvalKeys: ksk input dimension does not match params");
    panicIfNot(ksk_.outDim() == params_.n,
               "EvalKeys: ksk output dimension does not match params");
    panicIfNot(ksk_.gadget().base_bits == params_.ks_base_bits &&
                   ksk_.gadget().levels == params_.l_ksk,
               "EvalKeys: ksk gadget does not match params");
}

uint64_t
EvalKeys::residentBytes() const
{
    // BSK: n GGSWs of (k+1)*l_bsk rows x (k+1) frequency polynomials
    // of N/2 complex points (2 doubles each).
    const uint64_t bsk_polys = uint64_t(params_.n) * (params_.k + 1) *
                               params_.l_bsk * (params_.k + 1);
    const uint64_t bsk_bytes =
        bsk_polys * (params_.N / 2) * sizeof(Cplx);
    // KSK: in_dim*levels LWE rows of out_dim+1 torus words.
    const uint64_t ksk_bytes = uint64_t(ksk_.inDim()) *
                               ksk_.gadget().levels *
                               (uint64_t(ksk_.outDim()) + 1) *
                               sizeof(Torus32);
    return bsk_bytes + ksk_bytes;
}

} // namespace strix
