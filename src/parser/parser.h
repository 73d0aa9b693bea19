// Text format for schemas, CFDs, views and data — the surface syntax of
// the library (used by the CLI tool and the examples' spec files).
//
// Line-oriented grammar (# starts a comment, statements end at ';' or
// end of line):
//
//   relation R1(AC, phn, name, street, city, zip)
//   relation S(flag{0,1}, val)          # {..} = finite domain
//
//   cfd R1: [zip] -> street             # plain FD: all-wildcard pattern
//   cfd R1: [AC=20] -> city=LDN         # pattern constants via '='
//   cfd R1: [] -> city=LDN              # empty LHS: constant column
//
//   view V = pi(0.AC as AC, 0.phn, "44" as CC)
//            sigma(0.city = 1.val, 0.AC = "20")
//            from(R1, S)
//        union pi(...) sigma(...) from(...)
//
//     * atoms are listed in from(...); columns are addressed as
//       <atom-index>.<attr>; pi(...) may be omitted (project all);
//       sigma entries are col = col or col = "const".
//
//   cfd V: [CC=44, zip] -> street       # CFD on a declared view
//   eq V: AC = CC                       # special-x CFD (A = B)
//
//   union U = V1, V2                    # SPCU over declared views'
//                                       # disjuncts (union-compatible)
//
//   serve V1, U, V1                     # request round for the serving
//                                       # CLI modes (repeats allowed;
//                                       # default: all views once)
//
//   add-cfd R1: [AC=20] -> city=LDN     # sigma churn script: applied by
//   drop-cfd R1: [zip] -> street        # the CLI batch mode between
//                                       # serving rounds, in order
//
//   insert R1(20, 1234567, Mike, Portland, LDN, "W1B 1JL")
//
// Values may be bare words/numbers or double-quoted strings.

#ifndef CFDPROP_PARSER_PARSER_H_
#define CFDPROP_PARSER_PARSER_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/algebra/view.h"
#include "src/base/status.h"
#include "src/cfd/cfd.h"
#include "src/data/database.h"
#include "src/schema/schema.h"

namespace cfdprop {

/// One step of a sigma churn script (add-cfd / drop-cfd statement).
struct SigmaMutation {
  /// true = add-cfd, false = drop-cfd (retract).
  bool add = true;
  CFD cfd;
};

/// A parsed specification: schema + dependencies + views + data.
struct Spec {
  Catalog catalog;

  /// CFDs on source relations, tagged with catalog relation ids.
  std::vector<CFD> source_cfds;

  /// Declared views, in declaration order.
  std::vector<std::string> view_names;
  std::map<std::string, SPCUView> views;

  /// CFDs declared on views (tagged kViewSchemaId; attribute indices are
  /// output column positions of the named view).
  std::vector<std::pair<std::string, CFD>> view_cfds;

  /// Tuples from insert statements.
  std::vector<std::pair<RelationId, Tuple>> inserts;

  /// Sigma churn script (add-cfd / drop-cfd statements, in file order).
  /// The CLI batch mode replays these against the engine's registered
  /// sigma between serving rounds.
  std::vector<SigmaMutation> sigma_mutations;

  /// Serving round declared by `serve V1, V2, V1` statements (in file
  /// order, repeats allowed — a view listed twice models a hot request).
  /// Empty = serve every declared view once, in declaration order,
  /// which is what the batch/drive CLI modes fall back to.
  std::vector<std::string> round_views;

  /// The request round a serving CLI mode should replay: `round_views`
  /// when declared, else every view once in declaration order.
  const std::vector<std::string>& ServingRound() const {
    return round_views.empty() ? view_names : round_views;
  }

  /// The output-column index of `column` in view `view_name`, or kNoAttr.
  AttrIndex FindViewColumn(const std::string& view_name,
                           std::string_view column) const;

  /// Builds a database from the insert statements.
  Result<Database> MakeDatabase();
};

/// Parses a full specification. On error, the Status message carries the
/// line number and a description.
Result<Spec> ParseSpec(std::string_view text);

/// Renders a CFD in the spec syntax ("cfd R1: [AC=20] -> city=LDN"),
/// resolving attribute names through `attr_name`.
std::string FormatCFD(const CFD& cfd, const ValuePool& pool,
                      const std::string& target_name,
                      const std::function<std::string(AttrIndex)>& attr_name);

}  // namespace cfdprop

#endif  // CFDPROP_PARSER_PARSER_H_
