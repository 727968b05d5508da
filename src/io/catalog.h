#ifndef SCALEIN_IO_CATALOG_H_
#define SCALEIN_IO_CATALOG_H_

#include <string>
#include <string_view>

#include "core/access_schema.h"
#include "relational/database.h"
#include "relational/schema.h"
#include "util/status.h"

namespace scalein {

/// Text formats for catalogs, access schemas, and data, so databases and
/// their access declarations can live in files next to the code that uses
/// them (see examples/scalein_shell.cpp and the `testdata` helpers).
///
/// Schema text — one declaration per line, '#' comments:
///
///     # the Graph Search catalog
///     relation person(id, name, city)
///     relation friend(id1, id2)
///
/// Access-schema text — four statement forms:
///
///     access friend(id1) N=5000 T=1        # plain (R, X, N, T)
///     key person(id)                       # (R, X, 1, 1)
///     access visit(yy -> yy, mm, dd) N=366 # embedded (R, X[Y], N, T)
///     fd visit: id, yy, mm, dd -> rid      # (R, X[X∪Y], 1, 1)
///
/// Relation data (CSV): one tuple per line, comma-separated values. A value
/// consisting solely of an optional '-' and digits is an integer, and must
/// fit in 64 bits; everything else is a string (surrounding double quotes
/// are stripped when present).

/// Parses schema text.
Result<Schema> ParseSchemaText(std::string_view text);

/// Parses access-schema text against `schema`.
Result<AccessSchema> ParseAccessSchemaText(std::string_view text,
                                           const Schema& schema);

/// Parses one CSV value using the integer-or-string rule above; an integer
/// outside int64_t is InvalidArgument.
Result<Value> ParseCsvValue(std::string_view field);

/// Loads CSV rows into `relation` of `db`. Rows with the wrong arity fail.
Status LoadRelationCsv(Database* db, const std::string& relation,
                       std::string_view csv);

/// Renders a relation back to CSV (strings are quoted).
std::string RelationToCsv(const Relation& relation);

/// File convenience wrappers.
Result<std::string> ReadFileToString(const std::string& path);
Status WriteStringToFile(const std::string& path, std::string_view content);
Result<Schema> LoadSchemaFile(const std::string& path);
Result<AccessSchema> LoadAccessSchemaFile(const std::string& path,
                                          const Schema& schema);

}  // namespace scalein

#endif  // SCALEIN_IO_CATALOG_H_
