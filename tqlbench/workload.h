// Seeded generation of the population and of every workload statement,
// as TQL text, together with the model state each statement implies.
#ifndef TQLBENCH_WORKLOAD_H_
#define TQLBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "model.h"

namespace tqlbench {

// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 7) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  int64_t Range(int64_t lo, int64_t hi) {  // inclusive
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// The sizes of the paper's running-example population (README records
// them with the statement mixes).
struct Sizes {
  int employees = 4000;
  int managers = 24;
  int projects = 24;
  int rounds = 48;  // salary rounds: each object is updated in ~half
};

struct ProjectModel {
  std::string oid;
  std::string title;
  int lead = 0;  // object index of the leading manager
  int64_t budget = 0;
};

// Objects [0, employees) are created as employees, [employees,
// employees + managers) as managers; all at instant 0.
struct Population {
  Sizes sizes;
  std::vector<std::string> schema;      // define class statements
  std::vector<std::string> statements;  // creates, ticks, updates, index
  std::vector<ObjectModel> objects;
  std::vector<ProjectModel> projects;
  int64_t now = 0;  // the clock after the last statement (T0)
  uint64_t next_oid = 1;
};

// Salary values are unique per (object, segment): 100000 + 1000*k +
// a per-object permutation of the segment number, so value ranges select
// object ranges and equality selects one segment of one object.
inline int64_t SetupSalary(int k, int64_t segment, int64_t offset) {
  return 100000 + 1000 * static_cast<int64_t>(k) + (segment * 389 + offset) % 1000;
}

inline Population MakePopulation(uint64_t seed, const Sizes& sizes) {
  Population pop;
  pop.sizes = sizes;
  Rng rng(seed);
  pop.schema = {
      "define class person attributes name: string, birthyear: integer end",
      "define class employee under person attributes salary: "
      "temporal(integer), office: string end",
      "define class manager under employee attributes dependents: "
      "temporal(integer) end",
      "define class project attributes title: string, budget: "
      "temporal(integer), lead: employee end",
  };
  const int total = sizes.employees + sizes.managers;
  std::vector<int64_t> offset(total), segment(total, 0);
  for (int k = 0; k < total; ++k) {
    offset[k] = rng.Range(0, 999);
    ObjectModel o;
    const bool manager = k >= sizes.employees;
    o.oid = "i" + std::to_string(pop.next_oid++);
    o.name = (manager ? "m" : "e") + std::to_string(k);
    o.birthyear = 1950 + rng.Range(0, 49);
    o.office = "B" + std::to_string(rng.Range(0, 19));
    const int64_t salary = SetupSalary(k, 0, offset[k]);
    o.salary.SetFrom(0, salary);
    o.cls.SetFrom(0, manager ? kManager : kEmployee);
    std::string text = std::string("create ") +
                       (manager ? "manager" : "employee") + " (name: '" +
                       o.name + "', birthyear: " +
                       std::to_string(o.birthyear) + ", salary: " +
                       std::to_string(salary) + ", office: '" + o.office + "'";
    if (manager) {
      o.dependents = rng.Range(0, 4);
      text += ", dependents: " + std::to_string(*o.dependents);
    }
    pop.statements.push_back(text + ")");
    pop.objects.push_back(std::move(o));
  }
  for (int p = 0; p < sizes.projects; ++p) {
    ProjectModel proj;
    proj.oid = "i" + std::to_string(pop.next_oid++);
    proj.title = "p" + std::to_string(p);
    proj.lead = sizes.employees + static_cast<int>(rng.Uniform(sizes.managers));
    proj.budget = 1000 + rng.Range(0, 9000);
    pop.statements.push_back("create project (title: '" + proj.title +
                             "', budget: " + std::to_string(proj.budget) +
                             ", lead: " + pop.objects[proj.lead].oid + ")");
    pop.projects.push_back(std::move(proj));
  }
  for (int r = 0; r < sizes.rounds; ++r) {
    const int64_t step = rng.Range(1, 3);
    pop.now += step;
    pop.statements.push_back("tick " + std::to_string(step));
    for (int k = 0; k < total; ++k) {
      if (rng.Uniform(2) == 0) continue;
      const int64_t salary = SetupSalary(k, ++segment[k], offset[k]);
      pop.objects[k].salary.SetFrom(pop.now, salary);
      pop.statements.push_back("update " + pop.objects[k].oid +
                               " set salary = " + std::to_string(salary));
    }
  }
  pop.statements.push_back("create index emp_salary on employee (salary)");
  return pop;
}

}  // namespace tqlbench

#endif  // TQLBENCH_WORKLOAD_H_
