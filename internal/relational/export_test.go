package relational

// RowViewBuilds reports how many row views the database has built (see
// Database.Rows), for tests in package relational_test.
func (db *Database) RowViewBuilds() int64 { return db.rowViewBuilds.Load() }
