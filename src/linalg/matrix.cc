#include "linalg/matrix.hh"

#include "linalg/lanes.hh"

#include <algorithm>
#include <cmath>
#include <vector>

namespace unico::linalg {

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

Vector
Matrix::mul(const Vector &v) const
{
    assert(v.size() == cols_);
    Vector out(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        double acc = 0.0;
        for (std::size_t c = 0; c < cols_; ++c)
            acc += data_[r * cols_ + c] * v[c];
        out[r] = acc;
    }
    return out;
}

Matrix
Matrix::mul(const Matrix &other) const
{
    assert(cols_ == other.rows_);
    const std::size_t n = rows_;
    const std::size_t depth = cols_;
    const std::size_t m = other.cols_;
    Matrix out(n, m, 0.0);
    // Transpose B once so every dot product walks two contiguous
    // rows, and block the (r, c) loops so a tile of B-transpose stays
    // resident in cache across the whole row block.
    std::vector<double> bt(m * depth);
    for (std::size_t k = 0; k < depth; ++k)
        for (std::size_t c = 0; c < m; ++c)
            bt[c * depth + k] = other(k, c);
    constexpr std::size_t kBlock = 64;
    for (std::size_t rb = 0; rb < n; rb += kBlock) {
        const std::size_t r_end = std::min(n, rb + kBlock);
        for (std::size_t cb = 0; cb < m; cb += kBlock) {
            const std::size_t c_end = std::min(m, cb + kBlock);
            for (std::size_t r = rb; r < r_end; ++r) {
                const double *a_row = &data_[r * depth];
                for (std::size_t c = cb; c < c_end; ++c) {
                    const double *b_row = &bt[c * depth];
                    // Single k-ascending accumulator with the same
                    // zero-skip as the naive triple loop: the exact
                    // floating-point addition order is preserved, so
                    // results are bit-identical.
                    double acc = 0.0;
                    for (std::size_t k = 0; k < depth; ++k) {
                        const double a = a_row[k];
                        if (a == 0.0)
                            continue;
                        acc += a * b_row[k];
                    }
                    out(r, c) = acc;
                }
            }
        }
    }
    return out;
}

Matrix
Matrix::transposed() const
{
    Matrix out(cols_, rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            out(c, r) = (*this)(r, c);
    return out;
}

void
Matrix::addDiagonal(double c)
{
    const std::size_t n = std::min(rows_, cols_);
    for (std::size_t i = 0; i < n; ++i)
        data_[i * cols_ + i] += c;
}

double
dot(const Vector &a, const Vector &b)
{
    assert(a.size() == b.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += a[i] * b[i];
    return acc;
}

Vector
solveNormalEquations(const Matrix &gram, const Vector &rhs, double ridge)
{
    assert(gram.rows() == gram.cols());
    assert(rhs.size() == gram.rows());
    assert(ridge >= 0.0);
    Matrix a = gram;
    a.addDiagonal(ridge);
    const Cholesky chol(std::move(a));
    if (!chol.ok())
        return Vector(rhs.size(), 0.0);
    return chol.solve(rhs);
}

Cholesky::Cholesky(Matrix a) : a_(std::move(a))
{
    assert(a_.rows() == a_.cols());
    double jitter = 0.0;
    for (int attempt = 0; attempt < 8; ++attempt) {
        if (factorize(jitter)) {
            ok_ = true;
            return;
        }
        jitter = (jitter == 0.0) ? 1e-10 : jitter * 100.0;
        if (jitter > 1e2)
            break;
    }
}

bool
Cholesky::factorize(double jitter)
{
    const std::size_t n = a_.rows();
    l_ = Matrix(n, n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
        double diag = a_(j, j) + jitter;
        for (std::size_t k = 0; k < j; ++k)
            diag -= l_(j, k) * l_(j, k);
        if (!(diag > 0.0) || !std::isfinite(diag))
            return false;
        const double ljj = std::sqrt(diag);
        l_(j, j) = ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            double acc = a_(i, j);
            for (std::size_t k = 0; k < j; ++k)
                acc -= l_(i, k) * l_(j, k);
            l_(i, j) = acc / ljj;
        }
    }
    return true;
}

Vector
Cholesky::solveLower(const Vector &b) const
{
    assert(ok_);
    const std::size_t n = l_.rows();
    assert(b.size() == n);
    Vector y(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double acc = b[i];
        for (std::size_t k = 0; k < i; ++k)
            acc -= l_(i, k) * y[k];
        y[i] = acc / l_(i, i);
    }
    return y;
}

Matrix
Cholesky::solveLowerColumns(const Matrix &b) const
{
    assert(ok_);
    assert(b.rows() == l_.rows());
    return detail::activeLanePath().solveLowerColumns(l_, b);
}

std::size_t
Cholesky::solvePanelColumns()
{
    return detail::activeLanePath().panelColumns;
}

Vector
Cholesky::solve(const Vector &b) const
{
    assert(ok_);
    const std::size_t n = l_.rows();
    Vector y = solveLower(b);
    // Back substitution with Lᵀ.
    Vector x(n, 0.0);
    for (std::size_t ii = n; ii-- > 0;) {
        double acc = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k)
            acc -= l_(k, ii) * x[k];
        x[ii] = acc / l_(ii, ii);
    }
    return x;
}

double
Cholesky::halfLogDet() const
{
    assert(ok_);
    double acc = 0.0;
    for (std::size_t i = 0; i < l_.rows(); ++i)
        acc += std::log(l_(i, i));
    return acc;
}

} // namespace unico::linalg
