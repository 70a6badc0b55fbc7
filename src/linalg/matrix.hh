/**
 * @file
 * Dense row-major matrix/vector types used by the Gaussian-process
 * surrogate. Sized for the small systems that appear in MOBO
 * (hundreds of rows), so clarity is preferred over blocking tricks.
 */

#ifndef UNICO_LINALG_MATRIX_HH
#define UNICO_LINALG_MATRIX_HH

#include <cassert>
#include <cstddef>
#include <vector>

namespace unico::linalg {

using Vector = std::vector<double>;

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    Matrix() = default;

    /** rows x cols matrix filled with @p fill. */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill)
    {}

    /** Identity matrix of size n. */
    static Matrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    double &
    operator()(std::size_t r, std::size_t c)
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    double
    operator()(std::size_t r, std::size_t c) const
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    /** Raw storage (row-major). */
    const std::vector<double> &data() const { return data_; }

    /** Pointer to the first entry of row @p r. */
    double *
    row(std::size_t r)
    {
        assert(r < rows_);
        return data_.data() + r * cols_;
    }

    const double *
    row(std::size_t r) const
    {
        assert(r < rows_);
        return data_.data() + r * cols_;
    }

    /** Matrix-vector product. */
    Vector mul(const Vector &v) const;

    /** Matrix-matrix product. */
    Matrix mul(const Matrix &other) const;

    /** Transpose. */
    Matrix transposed() const;

    /** Add c to every diagonal entry (jitter). */
    void addDiagonal(double c);

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/** Dot product of two equally sized vectors. */
double dot(const Vector &a, const Vector &b);

/**
 * Solve the ridge normal equations (G + ridge I) x = r for an
 * accumulated Gram matrix G = XᵀX and right-hand side r = Xᵀy.
 *
 * This is the refit primitive of the online surrogate cost model: the
 * caller accumulates G and r incrementally (one rank-1 update per
 * observed sample) and periodically asks for fresh weights. The ridge
 * term keeps the system well posed for rank-deficient corpora
 * (duplicated or constant feature columns) and for fewer samples than
 * features — including the single-sample case. If the jittered
 * Cholesky still fails, a zero vector is returned so the caller
 * degrades to predicting the bias alone, deterministically.
 */
Vector solveNormalEquations(const Matrix &gram, const Vector &rhs,
                            double ridge);

/**
 * Cholesky factorization of a symmetric positive-definite matrix.
 *
 * Stores the lower-triangular factor L with A = L Lᵀ and solves
 * linear systems by forward/back substitution. Used for GP posterior
 * computation and log-marginal-likelihood evaluation.
 */
class Cholesky
{
  public:
    /**
     * Factorize @p a. If the matrix is not positive definite, jitter
     * is added to the diagonal in increasing amounts until the
     * factorization succeeds (up to a bound); ok() reports success.
     */
    explicit Cholesky(Matrix a);

    /** True if a factorization was obtained. */
    bool ok() const { return ok_; }

    /** Solve A x = b. */
    Vector solve(const Vector &b) const;

    /** Solve L y = b (forward substitution). */
    Vector solveLower(const Vector &b) const;

    /**
     * Solve L Y = B for an n x m right-hand side B (column-blocked
     * forward substitution). Every column repeats solveLower()'s exact
     * operation order, so column j of the result is bitwise equal to
     * solveLower() of column j of B; the blocking only lets one pass
     * over L serve a block of columns at once. Runs the widest
     * vector-lane instance the CPU supports (linalg/lanes.hh); all
     * instances give the same bits.
     */
    Matrix solveLowerColumns(const Matrix &b) const;

    /**
     * Columns that share one pass over L in solveLowerColumns(): 32 on
     * the AVX-512 instance, 16 on the baseline. A right-hand side of up
     * to this many columns costs one pass; each further panel, another.
     */
    static std::size_t solvePanelColumns();

    /** Sum of log of diagonal entries of L (0.5 * log det A). */
    double halfLogDet() const;

    /** Access the lower factor. */
    const Matrix &lower() const { return l_; }

  private:
    bool factorize(double jitter);

    Matrix a_;
    Matrix l_;
    bool ok_ = false;
};

} // namespace unico::linalg

#endif // UNICO_LINALG_MATRIX_HH
