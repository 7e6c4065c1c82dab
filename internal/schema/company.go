package schema

import "fmt"

// Company builds the example Company database schema of Figure 2, used
// throughout §V and §VI to illustrate candidate view generation and views
// selection. Tests mirror the paper's worked example against it.
func Company() *Schema {
	s := New()
	s.AddRelation(&Relation{
		Name: "Address",
		Columns: []Column{
			{Name: "AID", Type: TInt},
			{Name: "Street", Type: TString},
			{Name: "City", Type: TString},
			{Name: "Zip", Type: TString},
		},
		PK: []string{"AID"},
	})
	s.AddRelation(&Relation{
		Name: "Department",
		Columns: []Column{
			{Name: "DNo", Type: TInt},
			{Name: "DName", Type: TString},
		},
		PK: []string{"DNo"},
	})
	s.AddRelation(&Relation{
		Name: "Employee",
		Columns: []Column{
			{Name: "EID", Type: TInt},
			{Name: "EName", Type: TString},
			{Name: "EHome_AID", Type: TInt},
			{Name: "EOffice_AID", Type: TInt},
			{Name: "E_DNo", Type: TInt},
		},
		PK: []string{"EID"},
		FKs: []ForeignKey{
			{Cols: []string{"EHome_AID"}, RefTable: "Address"},
			{Cols: []string{"EOffice_AID"}, RefTable: "Address"},
			{Cols: []string{"E_DNo"}, RefTable: "Department"},
		},
	})
	s.AddRelation(&Relation{
		Name: "Department_Location",
		Columns: []Column{
			{Name: "DL_DNo", Type: TInt},
			{Name: "DLocation", Type: TString},
		},
		PK: []string{"DL_DNo", "DLocation"},
		FKs: []ForeignKey{
			{Cols: []string{"DL_DNo"}, RefTable: "Department"},
		},
	})
	s.AddRelation(&Relation{
		Name: "Project",
		Columns: []Column{
			{Name: "PNo", Type: TInt},
			{Name: "PName", Type: TString},
			{Name: "P_DNo", Type: TInt},
		},
		PK: []string{"PNo"},
		FKs: []ForeignKey{
			{Cols: []string{"P_DNo"}, RefTable: "Department"},
		},
	})
	s.AddRelation(&Relation{
		Name: "Works_On",
		Columns: []Column{
			{Name: "WO_EID", Type: TInt},
			{Name: "WO_PNo", Type: TInt},
			{Name: "Hours", Type: TInt},
		},
		PK: []string{"WO_EID", "WO_PNo"},
		FKs: []ForeignKey{
			{Cols: []string{"WO_EID"}, RefTable: "Employee"},
			{Cols: []string{"WO_PNo"}, RefTable: "Project"},
		},
	})
	s.AddRelation(&Relation{
		Name: "Dependent",
		Columns: []Column{
			{Name: "DP_EID", Type: TInt},
			{Name: "DPName", Type: TString},
			{Name: "DPHome_AID", Type: TInt},
		},
		PK: []string{"DP_EID", "DPName"},
		FKs: []ForeignKey{
			{Cols: []string{"DP_EID"}, RefTable: "Employee"},
			{Cols: []string{"DPHome_AID"}, RefTable: "Address"},
		},
	})
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// CompanyRoots is the roots set Q_company = {Address, Department} used in
// the paper's worked example (Figure 4).
func CompanyRoots() []string { return []string{"Address", "Department"} }

// CompanyWorkload is the synthetic workload W_company = {w1, w2, w3} of
// §V-B2.
func CompanyWorkload() []string {
	return []string{
		// W1: address details of an employee.
		`SELECT * FROM Employee as e, Address as a WHERE a.AID = e.EHome_AID and e.EID = ?`,
		// W2: employees and their hours in a department.
		`SELECT * FROM Department as d, Employee as e, Works_On as wo
		 WHERE d.DNo = e.E_DNo and e.EID = wo.WO_EID and d.DNo = ?`,
		// W3: employees who work a certain number of hours.
		`SELECT * FROM Employee as e, Works_On as wo WHERE e.EID = wo.WO_EID and wo.Hours = ?`,
	}
}

// TableRows is one table's rows.
type TableRows struct {
	Table string
	Rows  []Row
}

// CompanySample is the small deterministic Company dataset the shell, the
// wire server and the client example load: 8 addresses, 3 departments, 12
// employees, 4 projects and two projects per employee. Tables come in a
// fixed order, parents before the rows that reference them, so loading them
// in turn draws the same stamps on every run.
func CompanySample() []TableRows {
	var addresses, departments, employees, projects, worksOn []Row
	for a := int64(1); a <= 8; a++ {
		addresses = append(addresses, Row{"AID": a, "Street": fmt.Sprintf("%d Main St", a), "City": "Nashville", "Zip": fmt.Sprintf("%05d", 37000+a)})
	}
	for d := int64(1); d <= 3; d++ {
		departments = append(departments, Row{"DNo": d, "DName": fmt.Sprintf("dept-%d", d)})
	}
	for e := int64(1); e <= 12; e++ {
		employees = append(employees, Row{
			"EID": e, "EName": fmt.Sprintf("employee-%d", e),
			"EHome_AID": (e % 8) + 1, "EOffice_AID": ((e + 3) % 8) + 1, "E_DNo": (e % 3) + 1,
		})
	}
	for p := int64(1); p <= 4; p++ {
		projects = append(projects, Row{"PNo": p, "PName": fmt.Sprintf("project-%d", p), "P_DNo": (p % 3) + 1})
	}
	for e := int64(1); e <= 12; e++ {
		for p := int64(1); p <= 2; p++ {
			worksOn = append(worksOn, Row{"WO_EID": e, "WO_PNo": p, "Hours": e*5 + p})
		}
	}
	return []TableRows{
		{"Address", addresses}, {"Department", departments}, {"Employee", employees},
		{"Project", projects}, {"Works_On", worksOn},
	}
}
