// The kernel engine's avx512 rung: la/engine.hpp instantiated on 8-lane
// __m512d. The build compiles this file alone with -mavx512f; kernels.cpp
// reaches it through kTable only after the CPU reports AVX-512F. See the
// symbol-hygiene rule in la/engine.hpp: kTable is the one external
// symbol this object may define.
#include "la/engine.hpp"

#if !defined(__AVX512F__)
#error "la/kernels_avx512.cpp must be compiled with -mavx512f"
#endif

namespace nadmm::la::kernels::engine::avx512 {

constinit const Table kTable = make_table<Avx512>("avx512");

}  // namespace nadmm::la::kernels::engine::avx512
