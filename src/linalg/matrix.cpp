#include "matrix.hpp"

#include <cmath>

#include "linalg/parallel_policy.hpp"
#include "util/thread_pool.hpp"

namespace fisone::linalg {

namespace {
void check_same_shape(const matrix& a, const matrix& b, const char* what) {
    if (a.rows() != b.rows() || a.cols() != b.cols())
        throw std::invalid_argument(std::string(what) + ": shape mismatch");
}
void check_same_length(std::span<const double> a, std::span<const double> b, const char* what) {
    if (a.size() != b.size()) throw std::invalid_argument(std::string(what) + ": length mismatch");
}

/// Run a row-partitioned product over rows [0, m): one kernel call over
/// every row when the policy leaves no pool (a product too small to pay
/// for dispatch, or no pool at all), else tile-aligned chunks on the pool.
template <class Kernel>
void for_rows(util::thread_pool* pool, std::size_t m, std::size_t flops, const Kernel& kernel) {
    pool = parallel_policy::effective(pool, flops);
    if (pool == nullptr) {
        kernel(0, m);
        return;
    }
    util::parallel_for(pool, 0, m, parallel_policy::matmul_row_grain(m), kernel);
}
}  // namespace

matrix& matrix::operator+=(const matrix& other) {
    check_same_shape(*this, other, "matrix::operator+=");
    kernels::axpy(data_.size(), 1.0, other.data_.data(), data_.data());
    return *this;
}

matrix& matrix::operator-=(const matrix& other) {
    check_same_shape(*this, other, "matrix::operator-=");
    kernels::axpy(data_.size(), -1.0, other.data_.data(), data_.data());
    return *this;
}

matrix& matrix::operator*=(double scalar) noexcept {
    kernels::scale(data_.size(), scalar, data_.data());
    return *this;
}

void matmul_into(matrix& out, const matrix& a, const matrix& b, util::thread_pool* pool) {
    if (a.cols() != b.rows()) throw std::invalid_argument("matmul: inner dimension mismatch");
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    out.resize_uninit(m, n);
    for_rows(pool, m, m * k * n, [&](std::size_t r0, std::size_t r1) {
        kernels::matmul_blocked(a.data(), b.data(), out.data(), m, k, n, r0, r1);
    });
}

void matmul_nt_into(matrix& out, const matrix& a, const matrix& b, util::thread_pool* pool) {
    if (a.cols() != b.cols()) throw std::invalid_argument("matmul_nt: dimension mismatch");
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    out.resize_uninit(m, n);
    for_rows(pool, m, m * k * n, [&](std::size_t r0, std::size_t r1) {
        kernels::matmul_nt_blocked(a.data(), b.data(), out.data(), m, k, n, r0, r1);
    });
}

void matmul_tn_into(matrix& out, const matrix& a, const matrix& b, util::thread_pool* pool) {
    if (a.rows() != b.rows()) throw std::invalid_argument("matmul_tn: dimension mismatch");
    const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
    out.resize_uninit(m, n);
    for_rows(pool, m, m * k * n, [&](std::size_t r0, std::size_t r1) {
        kernels::matmul_tn_blocked(a.data(), b.data(), out.data(), m, k, n, r0, r1);
    });
}

matrix matmul(const matrix& a, const matrix& b, util::thread_pool* pool) {
    matrix out;
    matmul_into(out, a, b, pool);
    return out;
}

matrix matmul_nt(const matrix& a, const matrix& b, util::thread_pool* pool) {
    matrix out;
    matmul_nt_into(out, a, b, pool);
    return out;
}

matrix matmul_tn(const matrix& a, const matrix& b, util::thread_pool* pool) {
    matrix out;
    matmul_tn_into(out, a, b, pool);
    return out;
}

matrix transpose(const matrix& a) {
    matrix out = matrix::uninit(a.cols(), a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j) out(j, i) = a(i, j);
    return out;
}

matrix identity(std::size_t n) {
    matrix out(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) out(i, i) = 1.0;
    return out;
}

void hadamard_into(matrix& out, const matrix& a, const matrix& b) {
    check_same_shape(a, b, "hadamard");
    out.resize_uninit(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.size(); ++i) out.flat()[i] = a.flat()[i] * b.flat()[i];
}

matrix hadamard(const matrix& a, const matrix& b) {
    matrix out;
    hadamard_into(out, a, b);
    return out;
}

double squared_distance(std::span<const double> a, std::span<const double> b) {
    check_same_length(a, b, "squared_distance");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        acc += d * d;
    }
    return acc;
}

double euclidean_distance(std::span<const double> a, std::span<const double> b) {
    return std::sqrt(squared_distance(a, b));
}

double dot(std::span<const double> a, std::span<const double> b) {
    check_same_length(a, b, "dot");
    return kernels::dot(a.size(), a.data(), b.data());
}

double norm2(std::span<const double> a) {
    double acc = 0.0;
    for (const double x : a) acc += x * x;
    return std::sqrt(acc);
}

double cosine_similarity(std::span<const double> a, std::span<const double> b) {
    check_same_length(a, b, "cosine_similarity");
    const double na = norm2(a);
    const double nb = norm2(b);
    if (na == 0.0 || nb == 0.0) return 0.0;
    return dot(a, b) / (na * nb);
}

}  // namespace fisone::linalg
