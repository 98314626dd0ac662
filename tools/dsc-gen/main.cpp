//===- main.cpp - dsc-gen: the data-shackling compiler driver ----------------//
//
// Part of the Shackle project: a reproduction of "Data-centric Multi-level
// Blocking" (Kodukula, Ahmed, Pingali; PLDI 1997).
//
//===----------------------------------------------------------------------===//
//
// Build-time code generator: constructs every benchmark program, applies the
// paper's shackle configurations, verifies legality (a failed check fails
// the build, as a compiler should), and emits one translation unit of C
// kernels plus its header. The bench binaries compile the result, so every
// measured number comes from compiled code, not the interpreter.
//
// Usage: dsc-gen <output-directory>
//
//===----------------------------------------------------------------------===//

#include "core/Legality.h"
#include "core/ShackleDriver.h"
#include "emitc/EmitC.h"
#include "programs/Benchmarks.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace shackle;

namespace {

struct GenState {
  std::vector<KernelSpec> Kernels;
  std::vector<std::unique_ptr<LoopNest>> Owned;
  std::vector<std::unique_ptr<Program>> Programs;

  void add(const std::string &Name, LoopNest Nest) {
    Owned.push_back(std::make_unique<LoopNest>(std::move(Nest)));
    Kernels.push_back(KernelSpec{Name, Owned.back().get()});
  }
};

void addShackled(GenState &G, const Program &P, const std::string &Name,
                 const ShackleChain &Chain) {
  LegalityResult R = checkLegality(P, Chain);
  if (!R.Legal) {
    std::fprintf(stderr, "dsc-gen: shackle for %s is illegal: %s\n",
                 Name.c_str(), R.summary(P).c_str());
    std::exit(1);
  }
  G.add(Name, generateShackledCode(P, Chain));
}

} // namespace

int main(int argc, char **argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: dsc-gen <output-directory>\n");
    return 1;
  }
  std::string OutDir = argv[1];
  GenState G;

  // --- Matrix multiplication (Figures 3, 5, 6, 10) ------------------------
  {
    BenchSpec Spec = makeMatMul();
    const Program &P = *Spec.Prog;
    G.add("mmm_orig", generateOriginalCode(P));
    G.add("mmm_naive_c_64", generateNaiveShackledCode(P, mmmShackleC(P, 64)));
    addShackled(G, P, "mmm_shackle_c_64", mmmShackleC(P, 64));
    for (int64_t B : {16, 32, 64, 128})
      addShackled(G, P, "mmm_shackle_cxa_" + std::to_string(B),
                  mmmShackleCxA(P, B));
    addShackled(G, P, "mmm_two_level_64_8", mmmShackleTwoLevel(P, 64, 8));
    addShackled(G, P, "mmm_two_level_128_16",
                mmmShackleTwoLevel(P, 128, 16));
    G.Programs.push_back(std::move(Spec.Prog));
  }

  // --- Physically tiled MMM (Section 5.3 data reshaping) ------------------
  {
    BenchSpec Spec = makeMatMulTiled(64);
    const Program &P = *Spec.Prog;
    G.add("mmm_tiled_orig", generateOriginalCode(P));
    addShackled(G, P, "mmm_tiled_cxa_64", mmmShackleCxA(P, 64));
    G.Programs.push_back(std::move(Spec.Prog));
  }

  // --- Right-looking Cholesky (Figures 7, 11) -----------------------------
  {
    BenchSpec Spec = makeCholeskyRight();
    const Program &P = *Spec.Prog;
    G.add("chol_orig", generateOriginalCode(P));
    addShackled(G, P, "chol_stores_64", choleskyShackleStores(P, 64));
    addShackled(G, P, "chol_reads_64", choleskyShackleReads(P, 64));
    addShackled(G, P, "chol_product_wr_64",
                choleskyShackleProduct(P, 64, /*WritesFirst=*/true));
    // Two-level blocking (Section 6.3): outer 64 blocks refined by 8 blocks.
    {
      ShackleChain TwoLevel = choleskyShackleStores(P, 64);
      ShackleChain Inner = choleskyShackleStores(P, 8);
      TwoLevel.Factors.push_back(std::move(Inner.Factors[0]));
      addShackled(G, P, "chol_two_level_64_8", TwoLevel);
    }
    G.Programs.push_back(std::move(Spec.Prog));
  }

  // --- Left-looking Cholesky ----------------------------------------------
  {
    BenchSpec Spec = makeCholeskyLeft();
    const Program &P = *Spec.Prog;
    G.add("chol_left_orig", generateOriginalCode(P));
    addShackled(G, P, "chol_left_stores_64", choleskyShackleStores(P, 64));
    G.Programs.push_back(std::move(Spec.Prog));
  }

  // --- QR factorization (Figure 12) ---------------------------------------
  {
    BenchSpec Spec = makeQRHouseholder();
    const Program &P = *Spec.Prog;
    G.add("qr_orig", generateOriginalCode(P));
    for (int64_t B : {16, 32, 64})
      addShackled(G, P, "qr_cols_" + std::to_string(B), qrColumnShackle(P, B));
    G.Programs.push_back(std::move(Spec.Prog));
  }

  // --- ADI (Figures 13(ii), 14) -------------------------------------------
  {
    BenchSpec Spec = makeADI();
    const Program &P = *Spec.Prog;
    G.add("adi_orig", generateOriginalCode(P));
    addShackled(G, P, "adi_fused", adiShackle(P));
    G.Programs.push_back(std::move(Spec.Prog));
  }

  // --- GMTRY (Figure 13(i)) ------------------------------------------------
  {
    BenchSpec Spec = makeGmtry();
    const Program &P = *Spec.Prog;
    G.add("gmtry_orig", generateOriginalCode(P));
    addShackled(G, P, "gmtry_stores_64", gmtryShackleStores(P, 64));
    G.Programs.push_back(std::move(Spec.Prog));
  }

  // --- Banded Cholesky (Figure 15) ------------------------------------------
  {
    BenchSpec Spec = makeCholeskyBanded();
    const Program &P = *Spec.Prog;
    G.add("band_orig", generateOriginalCode(P));
    addShackled(G, P, "band_stores_32", choleskyShackleStores(P, 32));
    G.Programs.push_back(std::move(Spec.Prog));
  }

  std::string Src = emitTranslationUnit(G.Kernels);
  std::string Hdr = emitHeader(G.Kernels);

  auto WriteFile = [](const std::string &Path, const std::string &Text) {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "dsc-gen: cannot open %s\n", Path.c_str());
      std::exit(1);
    }
    std::fwrite(Text.data(), 1, Text.size(), F);
    std::fclose(F);
  };
  WriteFile(OutDir + "/shackle_kernels.gen.c", Src);
  WriteFile(OutDir + "/shackle_kernels.gen.h", Hdr);
  std::fprintf(stderr, "dsc-gen: emitted %zu kernels to %s\n",
               G.Kernels.size(), OutDir.c_str());
  return 0;
}
