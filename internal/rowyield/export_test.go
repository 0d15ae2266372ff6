package rowyield

// CheckOccupancyTables exposes checkOccupancyTables to the external tests,
// which can build the library-weighted row models this package cannot
// import.
var CheckOccupancyTables = checkOccupancyTables
