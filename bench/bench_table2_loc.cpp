// Table 2: lines of code per assertion, without and including shared
// helpers (helpers double-counted between assertions, as in the paper).
//
// The numbers are measured over this repository's own sources at run time:
// each assertion's "main body" is the function(s) a developer writes to
// deploy it (the severity function, or the Id/Attrs extractor for
// consistency assertions), and the helpers are the shared utilities it
// calls (IoU, tracking, projection).
#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "loc_counter.hpp"

#ifndef OMG_SOURCE_DIR
#define OMG_SOURCE_DIR "."
#endif

int main(int argc, char** argv) {
  using namespace omg;
  using bench::FunctionRef;
  const auto flags = common::Flags::Parse(argc, argv);
  flags.CheckAllowed({"repo"});
  const std::string root = flags.GetString("repo", OMG_SOURCE_DIR);

  struct Entry {
    std::string assertion;
    std::vector<FunctionRef> body;
    std::vector<FunctionRef> helpers;
  };

  const FunctionRef iou{"src/geometry/box.cpp",
                        "double Iou(const Box2D& a, const Box2D& b)"};
  const FunctionRef tracker_associate{
      "src/geometry/tracker.cpp",
      "std::span<const std::int64_t> IouTracker::Associate"};
  const FunctionRef project_box{"src/geometry/box.cpp",
                                "Box2D Camera::ProjectBox"};

  const std::vector<Entry> entries = {
      // Consistency assertions: the developer writes the Id/Attrs extractor.
      {"news",
       {{"src/tvnews/news.cpp",
         "core::ConsistencyExtraction ExtractNewsRecords"}},
       {{"src/tvnews/news.cpp", "std::string SlotIdentifier"}}},
      {"ECG",
       {{"src/ecg/ecg.cpp", "core::ConsistencyExtraction ExtractEcgRecords"},
        {"src/ecg/ecg.cpp", "EcgSuite BuildEcgSuite"}},
       {{"src/ecg/ecg.cpp", "std::string RhythmName"}}},
      {"flicker",
       {{"src/video/assertions.cpp",
         "core::ConsistencyExtraction ExtractVideoRecords"}},
       {iou, tracker_associate}},
      {"appear",
       {{"src/video/assertions.cpp",
         "core::ConsistencyExtraction ExtractVideoRecords"}},
       {iou, tracker_associate}},
      // Custom assertions: the developer writes the severity function.
      {"multibox",
       {{"src/video/assertions.cpp", "double MultiboxSeverity"}},
       {iou}},
      {"agree",
       {{"src/av/assertions.cpp", "double AgreeSeverity"}},
       {iou, project_box}},
  };

  std::cout << "=== Table 2: lines of code per assertion ===\n"
            << "(measured over this repository's sources; helpers are\n"
            << " double-counted between assertions, as in the paper)\n\n";
  common::TextTable table(
      {"Assertion", "LOC (no helpers)", "LOC (inc. helpers)"});
  for (const auto& entry : entries) {
    const std::size_t body = bench::CountTotalLoc(root, entry.body);
    const std::size_t with_helpers =
        body + bench::CountTotalLoc(root, entry.helpers);
    table.AddRow({entry.assertion, std::to_string(body),
                  std::to_string(with_helpers)});
  }
  table.Print(std::cout);
  std::cout << "\nPaper reference: every assertion main body <= 25 LOC,\n"
            << "<= 60 LOC including helpers.\n";
  return 0;
}
