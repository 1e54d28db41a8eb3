#include "mrlr/setcover/io.hpp"

#include <string>
#include <vector>

#include "mrlr/util/text.hpp"

namespace mrlr::setcover {

void write_set_system(const SetSystem& sys, std::ostream& os) {
  text::Writer w(os);
  w.header(sys.num_sets(), sys.universe_size(), /*weighted=*/true);
  for (SetId i = 0; i < sys.num_sets(); ++i) {
    w.f64(sys.weight(i)).u64(sys.set(i).size());
    for (const ElementId j : sys.set(i)) w.u64(j);
    w.end_line();
  }
  w.flush();
}

SetSystem read_set_system(std::istream& is) {
  text::LineReader r(is, "set system");
  const auto [n, m, weighted] =
      r.header("set count in header", "universe size in header");
  const std::uint64_t header_line = r.line_no();
  // Element ids are 32-bit: a larger universe would truncate ids that
  // pass the j < m check.
  if (m > std::uint64_t{1} << 32) {
    r.fail("universe exceeds the 32-bit element-id limit");
  }

  // The CSR arrays grow geometrically: no header or row count sizes an
  // allocation, so a forged count fails as ParseError (truncated file,
  // short row) after allocating no more than the rows that back it.
  std::vector<std::uint64_t> offsets{0};
  std::vector<ElementId> elements;
  std::vector<double> weights;
  std::uint64_t i = 0;
  for (; i < n && r.next_line(); ++i) {
    weights.push_back(weighted ? r.f64("set weight") : 1.0);
    if (weights.back() <= 0.0) r.fail("set weight must be positive");
    const std::uint64_t k = r.u64("set size");
    for (std::uint64_t t = 0; t < k; ++t) {
      const std::uint64_t j = r.u64("element id");
      if (j >= m) r.fail("element outside universe");
      elements.push_back(static_cast<ElementId>(j));
    }
    r.done("set row");
    offsets.push_back(elements.size());
  }
  r.finish(i, n, "sets");
  // Like the binary spec decoder: a universe larger than the element
  // ids the rows carry cannot be covered, and must not size the element
  // index the build allocates.
  if (m > elements.size()) {
    r.fail("universe " + std::to_string(m) + " exceeds the " +
               std::to_string(elements.size()) +
               " element ids the set rows carry",
           header_line);
  }
  return SetSystem(m, std::move(offsets), std::move(elements),
                   std::move(weights));
}

}  // namespace mrlr::setcover
