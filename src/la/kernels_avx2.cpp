// The kernel engine's avx2 rung: la/engine.hpp instantiated on 4-lane
// __m256d. The build compiles this file alone with -mavx2; kernels.cpp
// reaches it through kTable only after the CPU reports AVX2. See the
// symbol-hygiene rule in la/engine.hpp: kTable is the one external
// symbol this object may define.
#include "la/engine.hpp"

#if !defined(__AVX2__)
#error "la/kernels_avx2.cpp must be compiled with -mavx2"
#endif

namespace nadmm::la::kernels::engine::avx2 {

constinit const Table kTable = make_table<Avx2>("avx2");

}  // namespace nadmm::la::kernels::engine::avx2
