"""README.md states the MDP as implemented; these keep its lists in step
with the code."""
import re
from pathlib import Path

from oranmec.env import ActionLayout, CostBreakdown

README = Path(__file__).resolve().parent.parent / "README.md"


def table_names(section: str) -> list[str]:
    """The backticked name opening each table row of README section
    ``## <section>``."""
    text = README.read_text().split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` \|", text, flags=re.MULTILINE)


def test_cost_items_are_the_breakdown_items():
    assert table_names("Costs and reward") == list(CostBreakdown._ITEMS)


def test_branches_are_the_layout_branches_in_order():
    layout = ActionLayout(du_servers=(1,), cu_servers=(2,), n_services=2)
    assert table_names("The action") == [name for name, _ in layout.per_bs_domains()]
