#ifndef PARPARAW_UTIL_DEFAULT_INIT_ALLOCATOR_H_
#define PARPARAW_UTIL_DEFAULT_INIT_ALLOCATOR_H_

#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace parparaw {

/// \brief std::allocator whose value-less construct() default-initialises.
///
/// `std::vector<T>::resize(n)` value-initialises its new elements, which for
/// a trivial T is a serial memset on the calling thread. With this
/// allocator the same resize leaves trivially default-constructible
/// elements uninitialised, so a buffer whose every slot is later written
/// by parallel tasks is first touched by those tasks (§4.4: working
/// buffers are allocated, not filled). Constructions with arguments
/// (push_back, assign with a value) are not overloaded here, so
/// std::allocator_traits performs them exactly as for std::allocator.
template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  using std::allocator<T>::allocator;

  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

/// A vector whose resize() does not fill: every slot must be written before
/// it is read.
template <typename T>
using WriteOnceVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace parparaw

#endif  // PARPARAW_UTIL_DEFAULT_INIT_ALLOCATOR_H_
