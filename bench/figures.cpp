// figures: the paper's figures, tables and ablations (bench/figures.hpp),
// any set of them in one process on one executor. Exits 1 on a flag error
// or an unknown row name, otherwise with the first failed row's status.
#include "bench/figures.hpp"

int main(int argc, char** argv) {
  using namespace isoee;
  std::vector<const bench::Row*> rows;
  const auto ctx = bench::init(argc, argv, &rows);
  if (!ctx) return 1;
  return bench::run_rows(*ctx, rows);
}
