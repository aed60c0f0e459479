// Package primitives implements the vectorized kernels that do all data
// processing in the X100-style engine: map_* value transformations,
// select_* predicate evaluation producing selection vectors, and aggr_*
// aggregation updates.
//
// Design rules, following Boncz et al. (CIDR 2005) and Héman et al.
// (CIDR 2007):
//
//   - A primitive is a simple loop over unary arrays, free of function
//     calls and — on the hot path — free of data-dependent branches, so the
//     compiler can keep the loop pipelined and the branch predictor is
//     never poisoned by data distribution.
//   - Every primitive comes in a dense variant (selection vector nil) and a
//     selective variant that iterates only the active positions.
//   - select_* primitives never copy data: they emit strictly ascending
//     selection vectors (lists of qualifying positions).
//   - Naming mirrors the paper: select_lt_int64_col_val is "select tuples
//     where an int64 column is less than a constant". Go exports these as
//     SelectLTInt64ColVal, etc.
//
// The amortization argument: a per-tuple interpreted engine pays
// interpretation overhead (virtual calls, branch mispredictions) per value;
// these primitives pay it per vector of ~1024 values, which is what makes
// the relational approach to IR competitive in the paper.
package primitives
