// Hermitian / symmetric eigensolvers (cyclic Jacobi). Used by the SCF Fock
// diagonalization, the DMET Lowdin orthogonalization and in-embedding
// canonical orbitals, and small exact diagonalizations; eigenvalues are
// returned in ascending order.
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace q2::la {

struct EighResult {
  std::vector<double> values;  ///< ascending
  CMatrix vectors;             ///< columns are eigenvectors
};

struct EighResultReal {
  std::vector<double> values;  ///< ascending
  RMatrix vectors;             ///< columns are eigenvectors
};

/// Full eigendecomposition of a Hermitian matrix.
EighResult eigh(const CMatrix& a);
/// Full eigendecomposition of a real symmetric matrix.
EighResultReal eigh(const RMatrix& a);

}  // namespace q2::la
